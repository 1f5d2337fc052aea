// ENGINE — incremental dirty-set engine vs reference full-rescan engine.
//
// The headline number is the wall-clock ratio on the Theorem-3 campaign
// preset (the hottest path in the repo: every portfolio daemon crossed
// with random + two-gradient inits over the thm3 topology slate), run on
// a thread pool with both engines and cross-checked row-for-row.  Micro
// rows isolate per-protocol step throughput on larger single instances;
// every row reports the incremental speedup (the "speedup" key the
// regression gate tracks).  The rows mix central-daemon steps (the
// incremental engine's ball re-tests) with dense synchronous and
// Bernoulli steps (its fused guard-kernel rescan).
//
// Unlike the google-benchmark experiment benches this tool links only
// the core library (plain chrono timing), so it builds everywhere and CI
// can always record the perf trajectory.  Results land in
// BENCH_engine.json (deterministic key order; timings are wall clock and
// naturally vary between hosts).
//
//   bench_engine [--smoke] [--json PATH] [--threads T] [--repeats R]
//                [--scaling-check]
//
// --scaling-check skips the snapshot entirely: it times the fused
// parallel engine at t1 and t8 on the dense sync ring-1M workload and
// exits non-zero when t8 throughput drops below 90% of t1 — the CI
// multi-core smoke (gated on nproc >= 4; meaningless on fewer cores).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/dijkstra_ring.hpp"
#include "baselines/matching.hpp"
#include "baselines/unbounded_unison.hpp"
#include "extensions/leader_election.hpp"
#include "unison/unison.hpp"
#include "campaign/artifacts.hpp"
#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "core/adversarial_configs.hpp"
#include "core/incremental_legitimacy.hpp"
#include "core/ssme.hpp"
#include "extensions/coloring.hpp"
#include "graph/generators.hpp"
#include "sim/daemon.hpp"
#include "sim/engine.hpp"
#include "sim/incremental_engine.hpp"

namespace {

using namespace specstab;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`repeats` wall clock of `fn`, milliseconds.
template <class Fn>
double best_of(int repeats, Fn fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const double start = now_ms();
    fn();
    const double elapsed = now_ms() - start;
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

std::string fmt(double value, int precision = 2) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

struct MicroRow {
  std::string name;
  std::int64_t steps = 0;
  double reference_ms = 0.0;
  double incremental_ms = 0.0;

  [[nodiscard]] double speedup() const {
    return incremental_ms > 0.0 ? reference_ms / incremental_ms : 0.0;
  }
};

/// One micro measurement: the same batch of runs on both engines (fresh
/// daemon per batch, same seed), verified to execute identical total step
/// counts.  Batching many initial configurations into one timed region
/// keeps the rows loop-dominated (engine throughput, not per-run setup),
/// which is what the committed snapshot tracks.
template <ProtocolConcept P, class MakeChecker>
MicroRow micro(const std::string& name, const Graph& g, const P& proto,
               const std::string& daemon_name, std::uint64_t seed,
               const std::vector<Config<typename P::State>>& inits,
               MakeChecker make_checker, StepIndex max_steps, int repeats) {
  MicroRow row;
  row.name = name;
  RunOptions opt;
  opt.max_steps = max_steps;
  for (const EngineKind kind :
       {EngineKind::kReference, EngineKind::kIncremental}) {
    opt.engine = kind;
    std::int64_t steps = 0;
    const double ms = best_of(repeats, [&] {
      auto daemon = make_daemon(daemon_name, seed);
      auto checker = make_checker();
      steps = 0;
      for (const auto& init : inits) {
        daemon->reset();
        const auto res =
            run_with_engine(g, proto, *daemon, init, opt, checker);
        steps += res.steps;
      }
    });
    if (kind == EngineKind::kReference) {
      row.reference_ms = ms;
      row.steps = steps;
    } else {
      row.incremental_ms = ms;
      if (steps != row.steps) {
        std::cerr << "!! ENGINE MISMATCH in micro '" << name << "': "
                  << row.steps << " vs " << steps << " steps\n";
        std::exit(2);
      }
    }
  }
  return row;
}

/// Arbitrary matching configurations: each vertex points at a random
/// neighbour or at nobody (self-stabilization starts from any state).
Config<MatchingProtocol::State> random_matching_config(const Graph& g,
                                                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Config<MatchingProtocol::State> cfg(static_cast<std::size_t>(g.n()),
                                      MatchingProtocol::kNull);
  for (VertexId v = 0; v < g.n(); ++v) {
    const auto& nbrs = g.neighbors(v);
    std::uniform_int_distribution<std::size_t> pick(0, nbrs.size());
    const std::size_t i = pick(rng);
    if (i < nbrs.size()) cfg[static_cast<std::size_t>(v)] = nbrs[i];
  }
  return cfg;
}

std::vector<MicroRow> run_micros(bool smoke, int repeats) {
  std::vector<MicroRow> rows;
  const std::size_t batch = smoke ? 8 : 48;

  {
    const Graph g = make_ring(smoke ? 12 : 48);
    const SsmeProtocol proto = SsmeProtocol::for_graph(g);
    rows.push_back(micro(
        "ssme/gamma1/ring/central-rr", g, proto, "central-rr", 42,
        {random_config(g, proto.clock(), 42)},
        [&] { return make_gamma1_checker(proto); }, smoke ? 2000 : 20000,
        repeats));
    rows.push_back(micro(
        "ssme/gamma1/ring/synchronous", g, proto, "synchronous", 42,
        {random_config(g, proto.clock(), 42)},
        [&] { return make_gamma1_checker(proto); }, smoke ? 500 : 4000,
        repeats));
  }
  {
    const Graph g = make_ring(smoke ? 32 : 256);
    const DijkstraRingProtocol proto = DijkstraRingProtocol::for_ring(g);
    rows.push_back(micro(
        "dijkstra/single-token/ring/central-rr", g, proto, "central-rr", 7,
        {proto.max_token_config()},
        [&] { return make_single_token_checker(proto); },
        smoke ? 4000 : 60000, repeats));
  }
  {
    const Graph g =
        make_random_connected(smoke ? 48 : 4096, smoke ? 0.15 : 0.0025, 5);
    const ColoringProtocol proto(g);
    std::vector<Config<ColoringProtocol::State>> inits;
    inits.push_back(monochrome_config(g, 0));
    for (std::size_t i = 1; i < batch; ++i) {
      inits.push_back(random_coloring_config(g, proto.palette_size(), i));
    }
    rows.push_back(micro(
        "coloring/proper/random/bernoulli-0.5", g, proto, "bernoulli-0.5",
        11, inits, [&] { return make_coloring_checker(proto); }, 200000,
        repeats));
  }
  {
    // Multi-field state at scale: LeaderState runs SoA by default (leader
    // and dist in separate columns), and this row is what guards the
    // split — guard scans over a large random graph are exactly the
    // memory-bound path the layout targets.
    const Graph g =
        make_random_connected(smoke ? 48 : 4096, smoke ? 0.15 : 0.0025, 7);
    const LeaderElectionProtocol proto(g);
    std::vector<Config<LeaderState>> inits;
    for (std::size_t i = 0; i < 2; ++i) {
      inits.push_back(random_leader_config(g, i));
    }
    rows.push_back(micro(
        "leader/elected/random/bernoulli-0.5", g, proto, "bernoulli-0.5",
        31, inits, [&] { return make_leader_election_checker(proto, g); },
        smoke ? 4000 : 200000, repeats));
  }
  {
    // Bounded unison on a torus: the cherry-clock register protocol on a
    // non-ring topology, dominated by dense distributed actions — the
    // column-swap dense path at n = 2304.
    const Graph g = smoke ? make_torus(4, 4) : make_torus(48, 48);
    const VertexId diam = smoke ? 4 : 48;
    const UnisonProtocol proto(
        SsmeParams::from_dimensions(g.n(), diam).make_clock());
    std::vector<Config<ClockValue>> inits;
    for (std::size_t i = 0; i < 2; ++i) {
      inits.push_back(random_config(g, proto.clock(), i));
    }
    rows.push_back(micro(
        "unison/gamma1/torus/bernoulli-0.5", g, proto, "bernoulli-0.5", 17,
        inits, [&] { return make_gamma1_checker(proto); },
        smoke ? 2000 : 3000, repeats));
  }
  {
    const Graph g = smoke ? make_torus(4, 4) : make_torus(64, 64);
    const MatchingProtocol proto;
    std::vector<Config<MatchingProtocol::State>> inits;
    inits.push_back(MatchingProtocol::null_config(g));
    for (std::size_t i = 1; i < batch; ++i) {
      inits.push_back(random_matching_config(g, i));
    }
    rows.push_back(micro(
        "matching/stable/torus/bernoulli-0.5", g, proto, "bernoulli-0.5",
        23, inits, [&] { return make_matching_checker(proto); }, 200000,
        repeats));
  }
  return rows;
}

/// Parallel-engine strong-scaling rows: per-step latency on
/// million-vertex topologies at 1/2/4/8 worker threads, against the
/// incremental engine as the baseline.  The MicroRow keys keep their
/// regression-gate meaning — reference_ms is the baseline (incremental)
/// time, incremental_ms the parallel time at the row's thread count, so
/// "speedup" is the parallel-over-incremental ratio the ±30% band
/// tracks; the t1/t2/t8 measurements land in the JSON as
/// `parallel/...` rows.  A strong-scaling report (per-step latency,
/// speedup over t1, parallel efficiency speedup/t) goes to stdout —
/// efficiency is a host property, so it is reported, not gated.  Step
/// counts are cross-checked between the engines (byte-identical results
/// are the differential suite's job; the bench still refuses to time
/// diverging runs).  One repeat: each full-mode run is seconds long, so
/// best-of adds minutes for noise the 500+-step rows do not have.
std::vector<MicroRow> parallel_scaling_rows(bool smoke) {
  std::vector<MicroRow> rows;
  struct Topo {
    std::string label;
    Graph g;
  };
  std::vector<Topo> topos;
  topos.push_back({smoke ? "ring-20k" : "ring-1M",
                   make_ring(smoke ? 20000 : 1000000)});
  topos.push_back({smoke ? "torus-10k" : "torus-1M",
                   smoke ? make_torus(100, 100) : make_torus(1000, 1000)});
  // 520 full-mode steps: above the regression gate's 500-step noise
  // floor.  Unison under the synchronous daemon never terminates before
  // the cap, so every row executes exactly max_steps dense actions.
  const StepIndex max_steps = smoke ? 40 : 520;
  const std::vector<unsigned> thread_counts = {1u, 2u, 4u, 8u};
  const UnboundedUnisonProtocol proto;
  std::cout << "\n-- parallel strong scaling (dense sync unison, fused "
               "SIMD shards) --\n";
  for (const auto& topo : topos) {
    const Graph& g = topo.g;
    Config<UnboundedUnisonProtocol::State> init(
        static_cast<std::size_t>(g.n()));
    std::mt19937_64 rng(99);
    std::uniform_int_distribution<std::int64_t> pick(-5, 20);
    for (auto& s : init) s = pick(rng);

    RunOptions opt;
    opt.max_steps = max_steps;
    opt.engine = EngineKind::kIncremental;
    AlwaysLegitimate checker;
    double base_ms = 0.0;
    std::int64_t base_steps = 0;
    {
      auto daemon = make_daemon("synchronous", 1);
      base_ms = best_of(1, [&] {
        const auto res = run_with_engine(g, proto, *daemon, init, opt,
                                         checker);
        base_steps = res.steps;
      });
    }
    opt.engine = EngineKind::kParallel;
    std::vector<double> ms_at(thread_counts.size(), 0.0);
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      opt.threads = thread_counts[i];
      std::int64_t steps = 0;
      auto daemon = make_daemon("synchronous", 1);
      ms_at[i] = best_of(1, [&] {
        const auto res = run_with_engine(g, proto, *daemon, init, opt,
                                         checker);
        steps = res.steps;
      });
      if (steps != base_steps) {
        std::cerr << "!! ENGINE MISMATCH in parallel scaling '" << topo.label
                  << "' t" << thread_counts[i] << ": " << base_steps
                  << " vs " << steps << " steps\n";
        std::exit(2);
      }
    }

    std::cout << topo.label << " (" << base_steps << " steps, incremental "
              << fmt(base_ms / static_cast<double>(base_steps), 4)
              << " ms/step):\n"
              << std::right << std::setw(10) << "threads" << std::setw(14)
              << "ms/step" << std::setw(12) << "vs-inc" << std::setw(12)
              << "vs-t1" << std::setw(14) << "efficiency" << "\n";
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      const double per_step = ms_at[i] / static_cast<double>(base_steps);
      const double vs_t1 = ms_at[0] / ms_at[i];
      const double eff = vs_t1 / static_cast<double>(thread_counts[i]);
      std::cout << std::setw(10) << thread_counts[i] << std::setw(14)
                << fmt(per_step, 4) << std::setw(11)
                << fmt(base_ms / ms_at[i]) << "x" << std::setw(11)
                << fmt(vs_t1) << "x" << std::setw(14) << fmt(eff) << "\n";
    }

    for (const unsigned threads : {1u, 2u, 8u}) {
      MicroRow row;
      row.name = "parallel/unison/" + topo.label + "/sync/t" +
                 std::to_string(threads);
      row.steps = base_steps;
      row.reference_ms = base_ms;
      const auto it = std::find(thread_counts.begin(), thread_counts.end(),
                                threads);
      row.incremental_ms = ms_at[static_cast<std::size_t>(
          it - thread_counts.begin())];
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

/// `--scaling-check`: the CI multi-core smoke.  Runs the dense sync 1M
/// ring workload on the fused parallel engine at t1 and t8 and requires
/// t8 throughput to be at least 90% of t1 (one-sided: t8 may be faster
/// by any margin, and the 10% slack absorbs shared-runner noise).  Only
/// meaningful on a multi-core host — the CI job gates it on nproc >= 4.
/// Returns the process exit code.
int run_scaling_check() {
  const Graph g = make_ring(1000000);
  const UnboundedUnisonProtocol proto;
  Config<UnboundedUnisonProtocol::State> init(static_cast<std::size_t>(g.n()));
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<std::int64_t> pick(-5, 20);
  for (auto& s : init) s = pick(rng);

  RunOptions opt;
  opt.max_steps = 120;
  opt.engine = EngineKind::kParallel;
  AlwaysLegitimate checker;
  double ms_at[2] = {0.0, 0.0};
  std::int64_t steps_at[2] = {0, 0};
  const unsigned threads[2] = {1u, 8u};
  for (int i = 0; i < 2; ++i) {
    opt.threads = threads[i];
    auto daemon = make_daemon("synchronous", 1);
    // Best-of-2 inside one process: the second run reuses warm page
    // tables and caches, which is the steady state the check targets.
    ms_at[i] = best_of(2, [&] {
      daemon->reset();
      const auto res = run_with_engine(g, proto, *daemon, init, opt, checker);
      steps_at[i] = res.steps;
    });
  }
  if (steps_at[0] != steps_at[1]) {
    std::cerr << "!! ENGINE MISMATCH in scaling check: " << steps_at[0]
              << " vs " << steps_at[1] << " steps\n";
    return 2;
  }
  const double t1_throughput = static_cast<double>(steps_at[0]) / ms_at[0];
  const double t8_throughput = static_cast<double>(steps_at[1]) / ms_at[1];
  std::cout << "scaling check (ring-1M dense sync, " << steps_at[0]
            << " steps): t1 " << fmt(ms_at[0] / steps_at[0], 4)
            << " ms/step, t8 " << fmt(ms_at[1] / steps_at[1], 4)
            << " ms/step, t8/t1 throughput "
            << fmt(t8_throughput / t1_throughput) << "x\n";
  if (t8_throughput < 0.9 * t1_throughput) {
    std::cerr << "FAIL: fused t8 throughput below 90% of t1 — parallel "
                 "stepping lost to its own synchronization\n";
    return 2;
  }
  std::cout << "ok: fused t8 holds t1 throughput\n";
  return 0;
}

/// One perturbed-recovery measurement: the same fault-injected run on
/// the incremental engine (baseline, `reference_ms`) and the parallel
/// engine at `threads` workers (`incremental_ms`), so "speedup" is the
/// parallel-over-incremental ratio under ongoing corruption.  The fault
/// schedule is seed-derived and engine-independent; besides the step
/// count the perturbation stats (fire steps, recovery distribution) are
/// cross-checked, and the bench refuses to time diverging runs.
template <ProtocolConcept P, class MakeChecker>
MicroRow perturbed_row(const std::string& name, const Graph& g,
                       const P& proto, const std::string& fault_text,
                       std::uint64_t seed,
                       const Config<typename P::State>& init,
                       MakeChecker make_checker,
                       typename FaultPlan<typename P::State>::ValuePool pool,
                       StepIndex max_steps, unsigned threads, int repeats) {
  using State = typename P::State;
  const FaultSpec fault = FaultSpec::parse(fault_text);
  const auto guard = [&proto](const Graph& gg, const ConfigView<State>& cv,
                              VertexId v) { return proto.enabled(gg, cv, v); };
  MicroRow row;
  row.name = name;
  RunOptions opt;
  opt.max_steps = max_steps;
  opt.steps_after_convergence = 0;
  PerturbationStats base_stats;
  for (const EngineKind kind :
       {EngineKind::kIncremental, EngineKind::kParallel}) {
    opt.engine = kind;
    opt.threads = kind == EngineKind::kParallel ? threads : 1;
    std::int64_t steps = 0;
    PerturbationStats stats;
    auto daemon = make_daemon("synchronous", seed);
    auto checker = make_checker();
    const double ms = best_of(repeats, [&] {
      daemon->reset();
      FaultPlan<State> plan(fault, seed, 2, pool, guard);
      const auto res = run_with_engine(g, proto, *daemon, init, opt, checker,
                                       nullptr, &plan);
      steps = res.steps;
      stats = res.perturb;
    });
    if (kind == EngineKind::kIncremental) {
      row.reference_ms = ms;
      row.steps = steps;
      base_stats = stats;
    } else {
      row.incremental_ms = ms;
      if (steps != row.steps || !(stats == base_stats)) {
        std::cerr << "!! ENGINE MISMATCH in perturbed '" << name << "': "
                  << row.steps << " vs " << steps << " steps\n";
        std::exit(2);
      }
    }
  }
  return row;
}

/// Perturbed-recovery rows: dense unison on a torus and SSME on a ring
/// under periodic corruption — the fault hook, guard re-tests in the
/// perturbed balls, and checker refreshes are all inside the timed
/// region.  Step counts stay above the regression gate's 500-step noise
/// floor in full mode (the last epoch fires at step 512).  Both sides
/// take the best of `repeats` runs, like the micro rows: with one run
/// per side, two runs of the same code read the torus t1 ratio as 0.65x
/// and 0.95x.
std::vector<MicroRow> perturbed_recovery_rows(bool smoke, int repeats) {
  std::vector<MicroRow> rows;
  {
    const Graph g = smoke ? make_torus(8, 8) : make_torus(200, 200);
    const std::string label = smoke ? "torus-64" : "torus-40k";
    const UnboundedUnisonProtocol proto;
    const auto arbitrary = [&g](std::uint64_t s) {
      std::mt19937_64 rng(s);
      std::uniform_int_distribution<std::int64_t> pick(-5, 20);
      Config<UnboundedUnisonProtocol::State> c(
          static_cast<std::size_t>(g.n()));
      for (auto& x : c) x = pick(rng);
      return c;
    };
    const std::string fault = smoke ? "periodic:period=8;k=16;epochs=4"
                                    : "periodic:period=64;k=400;epochs=8";
    for (const unsigned threads : {1u, 8u}) {
      rows.push_back(perturbed_row(
          "perturb/unison/" + label + "/periodic/t" + std::to_string(threads),
          g, proto, fault, 5, arbitrary(99),
          [&] { return make_unbounded_unison_checker(proto); }, arbitrary,
          smoke ? 120 : 1600, threads, repeats));
    }
  }
  {
    const Graph g = make_ring(smoke ? 16 : 1024);
    const std::string label = smoke ? "ring-16" : "ring-1k";
    const SsmeProtocol proto = SsmeProtocol::for_graph(g);
    const auto pool = [&g, &proto](std::uint64_t s) {
      return random_config(g, proto.clock(), s);
    };
    const std::string fault = smoke ? "periodic:period=8;k=4;epochs=4"
                                    : "periodic:period=64;k=32;epochs=8";
    for (const unsigned threads : {1u, 8u}) {
      rows.push_back(perturbed_row(
          "perturb/ssme/" + label + "/periodic/t" + std::to_string(threads),
          g, proto, fault, 9, random_config(g, proto.clock(), 9),
          [&] { return make_gamma1_checker(proto); }, pool,
          smoke ? 160 : 6000, threads, repeats));
    }
  }
  return rows;
}

/// Cross-protocol campaign row: the whole sweep preset (every registered
/// protocol x topologies x daemons, all dispatched through the
/// type-erased registry) on both engines.  Reported as a micro row so
/// check_bench_regression gates the erased dispatch path's speedup ratio
/// exactly like the typed rows.
MicroRow sweep_cross_protocol_row(bool smoke, unsigned threads,
                                  int repeats) {
  const auto items = campaign::expand_grid(campaign::sweep_grid(smoke));
  MicroRow row;
  row.name = "campaign/sweep-cross-protocol";
  campaign::CampaignResult reference_rows;
  for (const EngineKind kind :
       {EngineKind::kReference, EngineKind::kIncremental}) {
    campaign::RunnerOptions opt;
    opt.threads = threads;
    opt.engine = kind;
    campaign::CampaignResult last;
    const double ms = best_of(
        repeats, [&] { last = campaign::run_scenarios(items, opt); });
    std::int64_t steps = 0;
    for (const auto& r : last.rows) steps += r.steps;
    if (kind == EngineKind::kReference) {
      row.reference_ms = ms;
      row.steps = steps;
      reference_rows = std::move(last);
    } else {
      row.incremental_ms = ms;
      for (std::size_t i = 0; i < reference_rows.rows.size(); ++i) {
        if (!(reference_rows.rows[i] == last.rows[i])) {
          std::cerr << "!! ENGINE MISMATCH at sweep row " << i << "\n";
          std::exit(2);
        }
      }
    }
  }
  return row;
}

struct CampaignTiming {
  std::size_t scenarios = 0;
  double reference_ms = 0.0;
  double incremental_ms = 0.0;

  [[nodiscard]] double speedup() const {
    return incremental_ms > 0.0 ? reference_ms / incremental_ms : 0.0;
  }
};

CampaignTiming run_campaign_comparison(bool smoke, unsigned threads,
                                       int repeats) {
  const campaign::CampaignGrid grid = campaign::thm3_grid(smoke);
  const auto items = campaign::expand_grid(grid);

  CampaignTiming timing;
  timing.scenarios = items.size();

  campaign::CampaignResult reference_rows;
  for (const EngineKind kind :
       {EngineKind::kReference, EngineKind::kIncremental}) {
    campaign::RunnerOptions opt;
    opt.threads = threads;
    opt.engine = kind;
    campaign::CampaignResult last;
    const double ms = best_of(
        repeats, [&] { last = campaign::run_scenarios(items, opt); });
    if (kind == EngineKind::kReference) {
      timing.reference_ms = ms;
      reference_rows = std::move(last);
      continue;
    }
    timing.incremental_ms = ms;
    // The speedup only counts if the engines agree — assert it here too,
    // on the full preset the differential tests only smoke.
    if (reference_rows.rows.size() != last.rows.size()) {
      std::cerr << "!! ENGINE MISMATCH: row counts differ\n";
      std::exit(2);
    }
    for (std::size_t i = 0; i < reference_rows.rows.size(); ++i) {
      if (!(reference_rows.rows[i] == last.rows[i])) {
        std::cerr << "!! ENGINE MISMATCH at campaign row " << i << "\n";
        std::exit(2);
      }
    }
  }
  return timing;
}

std::string to_json(bool smoke, unsigned threads, int repeats,
                    const CampaignTiming& campaign_timing,
                    const std::vector<MicroRow>& micros) {
  std::ostringstream os;
  os << "{\n"
     << "  \"bench\": \"engine\",\n"
     << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
     << "  \"threads\": " << threads << ",\n"
     << "  \"repeats\": " << repeats << ",\n"
     << "  \"campaign\": {\"preset\": \"thm3\", \"scenarios\": "
     << campaign_timing.scenarios
     << ", \"reference_ms\": " << fmt(campaign_timing.reference_ms)
     << ", \"incremental_ms\": " << fmt(campaign_timing.incremental_ms)
     << ", \"speedup\": " << fmt(campaign_timing.speedup())
     << "},\n"
     << "  \"micro\": [\n";
  for (std::size_t i = 0; i < micros.size(); ++i) {
    const auto& m = micros[i];
    os << "    {\"name\": \"" << m.name << "\", \"steps\": " << m.steps
       << ", \"reference_ms\": " << fmt(m.reference_ms)
       << ", \"incremental_ms\": " << fmt(m.incremental_ms)
       << ", \"speedup\": " << fmt(m.speedup()) << "}"
       << (i + 1 < micros.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_engine.json";
  unsigned threads = 8;
  int repeats = 3;
  bool repeats_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--scaling-check") {
      return run_scaling_check();
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = std::stoi(argv[++i]);
      repeats_set = true;
    } else {
      std::cerr << "usage: bench_engine [--smoke] [--json PATH] "
                   "[--threads T] [--repeats R] [--scaling-check]\n";
      return 1;
    }
  }
  // Smoke defaults to a single repeat (CI records the trajectory, it
  // does not need best-of), but an explicit --repeats wins for callers
  // who want best-of timing on the small grid anyway.  The CI
  // bench-regression gate measures in full mode (default best-of-3).
  if (smoke && !repeats_set) repeats = 1;

  std::cout << "\n== ENGINE: incremental dirty-set vs reference full-rescan ["
            << (smoke ? "smoke" : "full") << ", " << threads
            << " threads, best of " << repeats << "] ==\n\n";

  const CampaignTiming campaign_timing =
      run_campaign_comparison(smoke, threads, repeats);
  std::cout << std::left << std::setw(42) << "workload" << std::right
            << std::setw(12) << "ref-ms" << std::setw(12) << "inc-ms"
            << std::setw(10) << "speedup" << "\n"
            << std::string(76, '-') << "\n"
            << std::left << std::setw(42) << "campaign/thm3-preset"
            << std::right << std::setw(12) << fmt(campaign_timing.reference_ms)
            << std::setw(12) << fmt(campaign_timing.incremental_ms)
            << std::setw(9) << fmt(campaign_timing.speedup()) << "x\n";

  auto micros = run_micros(smoke, repeats);
  micros.push_back(sweep_cross_protocol_row(smoke, threads, repeats));
  for (auto& row : parallel_scaling_rows(smoke)) {
    micros.push_back(std::move(row));
  }
  for (auto& row : perturbed_recovery_rows(smoke, repeats)) {
    micros.push_back(std::move(row));
  }
  for (const auto& m : micros) {
    std::cout << std::left << std::setw(42) << m.name << std::right
              << std::setw(12) << fmt(m.reference_ms) << std::setw(12)
              << fmt(m.incremental_ms) << std::setw(9) << fmt(m.speedup())
              << "x\n";
  }

  const std::string json =
      to_json(smoke, threads, repeats, campaign_timing, micros);
  campaign::write_text_file(json_path, json);
  std::cout << "\nwrote " << json_path << " (campaign speedup "
            << fmt(campaign_timing.speedup()) << "x over "
            << campaign_timing.scenarios << " scenarios)\n";
  return 0;
}
