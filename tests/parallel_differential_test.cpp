// Parallel-engine differential suite: the sharded parallel engine vs the
// incremental dirty-set engine (itself held byte-identical to the
// reference oracle by engine_differential_test).  The parallel engine's
// contract is *thread-count invariance*: the same RunResult — final
// configuration, every meter, the complete delta trace — at any
// `--threads` value, because shard boundaries only change which worker
// computes a delta, never the delta itself.
//
// This file carries the `parallel` ctest label: the TSan CI job builds
// with -fsanitize=thread and runs exactly this suite, so every test here
// doubles as a data-race probe.  The scenarios are therefore chosen to
// keep many shards busy: graphs big enough for 8–16 non-empty shards,
// dense synchronous steps (parallel staged apply + per-shard rescan) and
// sparse adversarial daemons (per-shard ball expansion with boundary
// fix-up), radius-2 guards whose balls straddle shard boundaries, and
// trace recording on top.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "baselines/matching.hpp"
#include "baselines/unbounded_unison.hpp"
#include "core/adversarial_configs.hpp"
#include "core/incremental_legitimacy.hpp"
#include "core/ssme.hpp"
#include "graph/generators.hpp"
#include "sim/daemon.hpp"
#include "sim/engine.hpp"
#include "sim/fault_plan.hpp"
#include "sim/incremental_engine.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/protocol_registry.hpp"
#include "test_protocols.hpp"

namespace specstab {
namespace {

const std::vector<unsigned>& thread_axis() {
  static const std::vector<unsigned> threads = {1, 2, 3, 5, 8, 16};
  return threads;
}

const std::vector<std::string>& daemon_axis() {
  static const std::vector<std::string> daemons = {
      "synchronous", "central-rr", "bernoulli-0.5", "random-subset"};
  return daemons;
}

template <class State>
Config<State> uniform_config(const Graph& g, std::int64_t lo, std::int64_t hi,
                             std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> pick(lo, hi);
  Config<State> cfg(static_cast<std::size_t>(g.n()));
  for (auto& s : cfg) s = static_cast<State>(pick(rng));
  return cfg;
}

template <class State>
void expect_same_run(const RunResult<State>& a, const RunResult<State>& b,
                     const std::string& ctx) {
  ASSERT_EQ(a.final_config, b.final_config) << ctx;
  EXPECT_EQ(a.steps, b.steps) << ctx;
  EXPECT_EQ(a.moves, b.moves) << ctx;
  EXPECT_EQ(a.rounds, b.rounds) << ctx;
  EXPECT_EQ(a.terminated, b.terminated) << ctx;
  EXPECT_EQ(a.hit_step_cap, b.hit_step_cap) << ctx;
  EXPECT_EQ(a.first_legitimate, b.first_legitimate) << ctx;
  EXPECT_EQ(a.last_illegitimate, b.last_illegitimate) << ctx;
  EXPECT_EQ(a.moves_to_convergence, b.moves_to_convergence) << ctx;
  EXPECT_EQ(a.rounds_to_convergence, b.rounds_to_convergence) << ctx;
  EXPECT_TRUE(a.trace == b.trace) << ctx;
}

/// Runs the scenario on the incremental engine, then on the parallel
/// engine at every thread-axis value, asserting identical RunResults
/// (traces included — opt.record_trace is forced on).
template <ProtocolConcept P, class MakeChecker>
void expect_thread_invariant(const Graph& g, const P& proto,
                             const std::string& daemon_name,
                             std::uint64_t seed,
                             const Config<typename P::State>& init,
                             MakeChecker make_checker, RunOptions opt,
                             const std::string& context) {
  opt.record_trace = true;
  opt.engine = EngineKind::kIncremental;
  opt.threads = 1;
  auto base_daemon = make_daemon(daemon_name, seed);
  auto base_checker = make_checker();
  const auto base =
      run_with_engine(g, proto, *base_daemon, init, opt, base_checker);

  opt.engine = EngineKind::kParallel;
  for (const unsigned threads : thread_axis()) {
    opt.threads = threads;
    auto daemon = make_daemon(daemon_name, seed);
    auto checker = make_checker();
    const auto got = run_with_engine(g, proto, *daemon, init, opt, checker);
    expect_same_run(base, got,
                    context + " threads=" + std::to_string(threads));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ParallelDifferential, UnisonManyShardsAllDaemons) {
  // Graphs with enough vertices that all 16 shards are non-empty and
  // radius-1 balls regularly straddle boundaries.
  std::vector<Graph> topologies;
  topologies.push_back(make_ring(96));
  topologies.push_back(make_torus(8, 9));
  topologies.push_back(make_random_connected(80, 0.06, 19));
  const UnboundedUnisonProtocol proto;
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    const Graph& g = topologies[t];
    for (const auto& daemon_name : daemon_axis()) {
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        RunOptions opt;
        opt.max_steps = 300;
        opt.steps_after_convergence = 0;
        expect_thread_invariant(
            g, proto, daemon_name, seed,
            uniform_config<UnboundedUnisonProtocol::State>(g, -5, 20, seed),
            [&] { return make_unbounded_unison_checker(proto); }, opt,
            "topology#" + std::to_string(t) + " daemon=" + daemon_name +
                " seed=" + std::to_string(seed));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ParallelDifferential, TwoHopGuardsAcrossShardBoundaries) {
  // Radius-2 guards: a single activation near a shard boundary dirties
  // vertices two shards away, so the interior test (ball inside
  // [bounds[k], bounds[k+1])) rejects more activations and the
  // sequential fix-up path runs constantly.
  const TwoHopMaxProtocol proto(2);
  std::vector<Graph> topologies;
  topologies.push_back(make_ring(64));
  topologies.push_back(make_random_connected(48, 0.08, 7));
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    const Graph& g = topologies[t];
    for (const auto& daemon_name : daemon_axis()) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        RunOptions opt;
        opt.max_steps = 250;
        opt.steps_after_convergence = 0;
        expect_thread_invariant(
            g, proto, daemon_name, seed,
            uniform_config<std::int32_t>(g, 0, 40, seed),
            [] { return AlwaysLegitimate{}; }, opt,
            "topology#" + std::to_string(t) + " daemon=" + daemon_name +
                " seed=" + std::to_string(seed));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ParallelDifferential, SsmeClosureAndLegitimacyMeters) {
  // The Gamma_1 incremental checker runs sequentially inside the
  // parallel engine; first_legitimate / last_illegitimate /
  // moves_to_convergence must match the incremental engine exactly.
  const Graph g = make_torus(6, 8);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  for (const auto& daemon_name : daemon_axis()) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      RunOptions opt;
      opt.max_steps = 400;
      expect_thread_invariant(
          g, proto, daemon_name, seed, random_config(g, proto.clock(), seed),
          [&] { return make_gamma1_checker(proto); }, opt,
          "daemon=" + daemon_name + " seed=" + std::to_string(seed));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ParallelDifferential, MatchingPointerStates) {
  // Pointer-valued states with out-of-range garbage: exercises sparse
  // per-shard flip detection where guards read neighbor pointers.
  const Graph g = make_random_connected(60, 0.07, 23);
  const MatchingProtocol proto;
  for (const auto& daemon_name : daemon_axis()) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      RunOptions opt;
      opt.max_steps = 400;
      opt.steps_after_convergence = 0;
      expect_thread_invariant(
          g, proto, daemon_name, seed,
          uniform_config<MatchingProtocol::State>(g, -3, g.n() + 2, seed),
          [&] { return make_matching_checker(proto); }, opt,
          "daemon=" + daemon_name + " seed=" + std::to_string(seed));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ParallelDifferential, MoreThreadsThanVertices) {
  // threads=16 on a 5-vertex ring: most shards are empty ranges; the
  // engine must tolerate them (empty slices, zero-length scans).
  const Graph g = make_ring(5);
  const UnboundedUnisonProtocol proto;
  for (const auto& daemon_name : daemon_axis()) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      RunOptions opt;
      opt.max_steps = 120;
      opt.steps_after_convergence = 0;
      expect_thread_invariant(
          g, proto, daemon_name, seed,
          uniform_config<UnboundedUnisonProtocol::State>(g, -5, 20, seed),
          [&] { return make_unbounded_unison_checker(proto); }, opt,
          "daemon=" + daemon_name + " seed=" + std::to_string(seed));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ParallelDifferential, WordBoundaryShardMisalignment) {
  // Shard boundaries snap to 64-vertex EnabledSet words, so ring sizes
  // straddling word boundaries (63/64/65/97/129/190) produce shards of
  // unequal word counts, trailing partial words, and — at high thread
  // counts — empty trailing shards.  The fused dense path (per-shard
  // SimdEval + disjoint mask-word writes + scatter prefix sums) must be
  // byte-identical through all of it.
  const UnboundedUnisonProtocol proto;
  for (const VertexId n : {63, 64, 65, 97, 129, 190}) {
    const Graph g = make_ring(n);
    for (const std::string daemon_name :
         {std::string("synchronous"), std::string("bernoulli-0.5")}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        RunOptions opt;
        opt.max_steps = 200;
        opt.steps_after_convergence = 0;
        expect_thread_invariant(
            g, proto, daemon_name, seed,
            uniform_config<UnboundedUnisonProtocol::State>(g, -5, 20, seed),
            [&] { return make_unbounded_unison_checker(proto); }, opt,
            "n=" + std::to_string(n) + " daemon=" + daemon_name +
                " seed=" + std::to_string(seed));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ParallelDifferential, GraphsSmallerThanOneShard) {
  // Word-aligned bounds mean any graph with n <= 64 lands entirely in
  // shard 0 and every other shard is an empty range, at every thread
  // count — the dense path must degenerate to the single-shard scan and
  // the sparse path must tolerate zero-work shards.
  const UnboundedUnisonProtocol proto;
  for (const VertexId n : {3, 17, 40, 63}) {
    const Graph g = make_ring(n);
    for (const auto& daemon_name : daemon_axis()) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        RunOptions opt;
        opt.max_steps = 150;
        opt.steps_after_convergence = 0;
        expect_thread_invariant(
            g, proto, daemon_name, seed,
            uniform_config<UnboundedUnisonProtocol::State>(g, -5, 20, seed),
            [&] { return make_unbounded_unison_checker(proto); }, opt,
            "n=" + std::to_string(n) + " daemon=" + daemon_name +
                " seed=" + std::to_string(seed));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ParallelDifferential, ScoredKernelPartialSumsAcrossShards) {
  // SSME's Gamma_1 checker consumes a whole-configuration score that the
  // fused dense path computes as per-shard int64 partial sums merged at
  // the barrier.  On graphs spanning several 64-vertex words, the
  // shard-ordered merge must reproduce the full-scan total bit-exactly —
  // first_legitimate / last_illegitimate hinge on it.
  for (const Graph& g : {make_ring(200), make_torus(10, 12)}) {
    const SsmeProtocol proto = SsmeProtocol::for_graph(g);
    for (const std::string daemon_name :
         {std::string("synchronous"), std::string("bernoulli-0.5")}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        RunOptions opt;
        opt.max_steps = 300;
        expect_thread_invariant(
            g, proto, daemon_name, seed, random_config(g, proto.clock(), seed),
            [&] { return make_gamma1_checker(proto); }, opt,
            "n=" + std::to_string(g.n()) + " daemon=" + daemon_name +
                " seed=" + std::to_string(seed));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// --- Full-set steps ------------------------------------------------------
//
// Under a daemon whose every action is the whole enabled set
// (Daemon::activates_all_enabled: synchronous, bernoulli-1) and a checker
// that takes fused totals, dense steps skip the daemon call and install
// straight from the rule codes, or from the mask words after a sparse
// re-test left the codes stale.  An observer or trace recording sends
// the engine back to the activated-vector path.  The harness below runs
// SSME under the closure-counting Gamma_1 checker both ways and holds
// each run to the incremental engine's.

struct ObservedStep {
  StepIndex step;
  std::vector<VertexId> activated;
  friend bool operator==(const ObservedStep&, const ObservedStep&) = default;
};

/// `observe` attaches an observer and records the trace (the fallback
/// path); `fault` is a fault spec, or nullptr for none; `after` is
/// steps_after_convergence.
void expect_full_set_invariant(const Graph& g, const std::string& daemon_name,
                               std::uint64_t seed, bool observe,
                               const char* fault,
                               std::optional<StepIndex> after,
                               const std::string& context) {
  using State = SsmeProtocol::State;
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  const Config<State> init = random_config(g, proto.clock(), seed);
  const auto run = [&](EngineKind engine, unsigned threads,
                       std::vector<ObservedStep>& log,
                       std::int64_t& violations) {
    RunOptions opt;
    opt.max_steps = 200;
    opt.steps_after_convergence = after;
    opt.engine = engine;
    opt.threads = threads;
    opt.record_trace = observe;
    StepObserver<State> observer;
    if (observe) {
      observer = [&log](StepIndex step, ConfigView<State>,
                        const std::vector<VertexId>& activated) {
        log.push_back({step, activated});
      };
    }
    std::optional<FaultPlan<State>> plan;
    if (fault != nullptr) {
      plan.emplace(
          FaultSpec::parse(fault), seed, 2,
          [&g, &proto](std::uint64_t s) {
            return random_config(g, proto.clock(), s);
          },
          [&proto](const Graph& gg, const ConfigView<State>& cv, VertexId v) {
            return proto.enabled(gg, cv, v);
          });
    }
    auto daemon = make_daemon(daemon_name, seed);
    ClosureCounting checker(make_gamma1_checker(proto));
    static_assert(kFusedScore<SsmeProtocol, decltype(checker)>,
                  "full-set steps need a checker that takes fused totals");
    auto res = run_with_engine(g, proto, *daemon, init, opt, checker,
                               observer, plan ? &*plan : nullptr);
    violations = checker.violations();
    return res;
  };

  std::vector<ObservedStep> base_log;
  std::int64_t base_violations = 0;
  const auto base =
      run(EngineKind::kIncremental, 1, base_log, base_violations);
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    std::vector<ObservedStep> log;
    std::int64_t violations = 0;
    const auto got = run(EngineKind::kParallel, threads, log, violations);
    const std::string ctx = context + " threads=" + std::to_string(threads);
    expect_same_run(base, got, ctx);
    EXPECT_EQ(base.perturb, got.perturb) << ctx;
    EXPECT_EQ(base_log, log) << ctx;
    EXPECT_EQ(base_violations, violations) << ctx;
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ParallelDifferential, FullSetStepsMatchIncremental) {
  // Graphs spanning several mask words, one with a partial last word.
  for (const Graph& g : {make_torus(12, 16), make_ring(150)}) {
    for (const std::string& daemon_name :
         {std::string("synchronous"), std::string("bernoulli-1")}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const std::string ctx = "n=" + std::to_string(g.n()) +
                                " daemon=" + daemon_name +
                                " seed=" + std::to_string(seed);
        // Full-set path: no observer, no trace.
        expect_full_set_invariant(g, daemon_name, seed, false, nullptr,
                                  std::nullopt, ctx);
        if (::testing::Test::HasFatalFailure()) return;
        // Fallback path: observer and trace force the activated vector.
        expect_full_set_invariant(g, daemon_name, seed, true, nullptr,
                                  std::nullopt, ctx + " observed");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ParallelDifferential, FullSetStepsAcrossFaultEpochs) {
  // k = 80 corrupts most of these graphs: dense epochs, repaired by the
  // sharded rescan, after which full-set steps install from codes again.
  // k = 2 epochs are sparse: the ball re-test leaves the codes stale, so
  // the next full-set step applies on the mask words' set bits.
  for (const Graph& g : {make_torus(12, 16), make_ring(150)}) {
    for (const std::string& daemon_name :
         {std::string("synchronous"), std::string("bernoulli-1")}) {
      for (const char* fault : {"periodic:period=9;k=80;epochs=4;start=3",
                                "burst:period=7;k=2;epochs=5;start=2"}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          const std::string ctx = "n=" + std::to_string(g.n()) +
                                  " daemon=" + daemon_name +
                                  " fault=" + fault +
                                  " seed=" + std::to_string(seed);
          expect_full_set_invariant(g, daemon_name, seed, false, fault, 0,
                                    ctx);
          if (::testing::Test::HasFatalFailure()) return;
          expect_full_set_invariant(g, daemon_name, seed, true, fault, 0,
                                    ctx + " observed");
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(ParallelDifferential, FullSetStepsStopAfterConvergence) {
  // The post-convergence stop counts full-set steps like any others.
  const Graph g = make_torus(10, 13);
  for (const std::string& daemon_name :
       {std::string("synchronous"), std::string("bernoulli-1")}) {
    for (const StepIndex after : {0, 1, 5, 17}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        expect_full_set_invariant(
            g, daemon_name, seed, false, nullptr, after,
            "daemon=" + daemon_name + " after=" + std::to_string(after) +
                " seed=" + std::to_string(seed));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ParallelDifferential, ExternalPoolReuseIsInvisible) {
  // RunOptions::pool hands the engine a caller-owned persistent
  // ShardPool (the campaign-runner / serve reuse path).  Reusing one
  // pool across many runs, at thread counts at and below the pool's
  // participant count, must be byte-identical to pool-less runs.
  const Graph g = make_ring(130);
  const UnboundedUnisonProtocol proto;
  ShardPool pool(7);  // 8 participants
  for (const std::string daemon_name :
       {std::string("synchronous"), std::string("random-subset")}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      RunOptions opt;
      opt.max_steps = 200;
      opt.steps_after_convergence = 0;
      opt.record_trace = true;
      opt.engine = EngineKind::kIncremental;
      opt.threads = 1;
      auto base_daemon = make_daemon(daemon_name, seed);
      auto base_checker = make_unbounded_unison_checker(proto);
      const auto init =
          uniform_config<UnboundedUnisonProtocol::State>(g, -5, 20, seed);
      const auto base =
          run_with_engine(g, proto, *base_daemon, init, opt, base_checker);

      opt.engine = EngineKind::kParallel;
      opt.pool = &pool;
      // threads > participants is clamped to the pool's size.
      for (const unsigned threads : {2u, 8u, 16u}) {
        opt.threads = threads;
        auto daemon = make_daemon(daemon_name, seed);
        auto checker = make_unbounded_unison_checker(proto);
        const auto got =
            run_with_engine(g, proto, *daemon, init, opt, checker);
        expect_same_run(base, got,
                        "pooled daemon=" + daemon_name + " seed=" +
                            std::to_string(seed) + " threads=" +
                            std::to_string(threads));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ParallelDifferential, RegistrySessionDigestsThreadInvariant) {
  // Through the type-erased session API: printed states and FNV digests
  // must be identical at every thread count for every protocol.
  const auto& registry = ProtocolRegistry::instance();
  const Graph g = make_ring(24);
  const VertexId diam = 12;
  for (const auto& entry : registry.entries()) {
    SessionSpec spec;
    spec.daemon = "bernoulli-0.5";
    spec.seed = 4242;
    spec.engine = EngineKind::kParallel;
    spec.threads = 1;
    const SessionResult base = entry.run_on(g, diam, spec);
    for (const unsigned threads : {2u, 8u}) {
      spec.threads = threads;
      const SessionResult got = entry.run_on(g, diam, spec);
      const std::string ctx =
          entry.info.name + " threads=" + std::to_string(threads);
      ASSERT_EQ(got.final_state, base.final_state) << ctx;
      ASSERT_EQ(got.final_digest, base.final_digest) << ctx;
      EXPECT_EQ(got.steps, base.steps) << ctx;
      EXPECT_EQ(got.moves, base.moves) << ctx;
      EXPECT_EQ(got.rounds, base.rounds) << ctx;
      EXPECT_EQ(got.terminated, base.terminated) << ctx;
      EXPECT_EQ(got.converged, base.converged) << ctx;
      EXPECT_EQ(got.convergence_steps, base.convergence_steps) << ctx;
    }
  }
}

TEST(ParallelDifferential, ShardPoolSurvivesManySessions) {
  // Back-to-back sessions each construct and destroy a ShardPool; the
  // handshake (generation counter + pending countdown) must leave no
  // stuck workers behind.  Under TSan this also checks the join path.
  const Graph g = make_ring(40);
  const UnboundedUnisonProtocol proto;
  for (int rep = 0; rep < 20; ++rep) {
    RunOptions opt;
    opt.engine = EngineKind::kParallel;
    opt.threads = 8;
    opt.max_steps = 60;
    opt.steps_after_convergence = 0;
    auto daemon = make_daemon("bernoulli-0.5", 100 + rep);
    auto checker = make_unbounded_unison_checker(proto);
    const auto res = run_with_engine(
        g, proto, *daemon, uniform_config<UnboundedUnisonProtocol::State>(
                               g, -5, 20, 100 + rep),
        opt, checker);
    EXPECT_GT(res.steps, 0) << "rep=" << rep;
  }
}

}  // namespace
}  // namespace specstab
