#include "layers.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/artifacts.hpp"
#include "campaign/runner.hpp"
#include "campaign/stats.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "serve/cache.hpp"
#include "serve/wire.hpp"

namespace perfbench {

namespace {

namespace sp = specstab;
namespace sc = specstab::campaign;
namespace sv = specstab::serve;

double median_ms(const Tracer& t, const char* name) {
  return median(t.durations_ms(name));
}

double sum_ms(const Tracer& t, const char* name) {
  double total = 0.0;
  for (const double d : t.durations_ms(name)) total += d;
  return total;
}

bool same_meters(const sp::SessionResult& a, const sp::SessionResult& b) {
  return a.steps == b.steps && a.moves == b.moves &&
         a.converged == b.converged &&
         a.convergence_steps == b.convergence_steps;
}

// ------------------------------------------------------------------ graph

void probe_graph(const Options& opt, Tracer& t, Report& report) {
  for (int rep = 0; rep < 3; ++rep) {
    const SpanScope span(&t, "graph.make_torus");
    (void)sp::make_torus(TorusWorkload::kSide, TorusWorkload::kSide);
  }
  std::vector<std::string> seen;
  for (const sc::CampaignGrid& grid : paper_grids(opt.seed, false)) {
    for (const sc::TopologySpec& topo : grid.topologies) {
      if (std::find(seen.begin(), seen.end(), topo.label()) != seen.end()) {
        continue;
      }
      seen.push_back(topo.label());
      const sp::Graph g = sc::make_topology(topo);
      const SpanScope span(&t, "graph.diameter");
      (void)sp::diameter(g);
    }
  }
  const sp::Graph torus100 = sp::make_torus(100, 100);
  sp::VertexId diam100 = 0;
  {
    const SpanScope span(&t, "graph.diameter_torus100");
    diam100 = sp::diameter(torus100);
  }
  report.check(diam100 == 100, "diameter of the 100x100 torus");
  report.metric("graph.make_torus_ms", median_ms(t, "graph.make_torus"), "ms");
  report.metric("graph.diameter_ms", sum_ms(t, "graph.diameter"), "ms");
  report.metric("graph.diameter_torus100_ms",
                median_ms(t, "graph.diameter_torus100"), "ms");
}

// ---------------------------------------------------------------- engines

struct EngineCase {
  const char* label;
  sp::EngineKind kind;
  bool all_threads;  // parallel at T = min(4, nproc) instead of 1
};

constexpr EngineCase kEngines[] = {
    {"incremental", sp::EngineKind::kIncremental, false},
    {"vector", sp::EngineKind::kVector, false},
    {"parallel_t1", sp::EngineKind::kParallel, false},
    {"parallel_tN", sp::EngineKind::kParallel, true},
};

/// Runs one shape on every engine, `reps` times each, checks that all
/// engines agree, and reports ns per move.  Returns the meters.
sp::SessionResult probe_shape(const char* shape,
                              const sp::ProtocolEntry& entry,
                              const sp::Graph& g, sp::VertexId diam,
                              sp::SessionSpec spec, unsigned threads, int reps,
                              Tracer& t, Report& report,
                              std::vector<double>* ns_out = nullptr) {
  std::optional<sp::SessionResult> first;
  for (const EngineCase& engine : kEngines) {
    const char* name =
        intern(std::string("engine.") + engine.label + "." + shape);
    spec.engine = engine.kind;
    spec.threads = engine.all_threads ? threads : 1;
    sp::SessionResult res;
    for (int rep = 0; rep < reps; ++rep) {
      const SpanScope span(&t, name);
      res = entry.run_on(g, diam, spec);
    }
    if (!first) first = res;
    const bool agree = report.check(
        same_meters(*first, res),
        std::string(engine.label) + " disagrees with incremental on " + shape);
    report.attempt(static_cast<std::uint64_t>(reps), agree ? 0 : reps);
    const double ns =
        median_ms(t, name) * 1e6 /
        static_cast<double>(std::max<std::int64_t>(1, res.moves));
    report.metric(
        std::string("engine.") + engine.label + ".ns_per_move." + shape, ns,
        "ns");
    if (ns_out) ns_out->push_back(ns);
  }
  return *first;
}

void probe_engines(const Options& opt, Tracer& t, Report& report) {
  const sp::ProtocolRegistry& registry = sp::ProtocolRegistry::instance();
  TorusWorkload torus(opt);
  torus.setup();
  const PinnedSession& pin = torus.pinned()[opt.seed % torus.pinned().size()];
  const sp::SessionSpec base = TorusWorkload::spec(
      pin.seed, sp::EngineKind::kIncremental, 1, torus.pool());

  // dense: the ssme-torus1m-sync session itself.
  std::vector<double> dense_ns;
  const sp::SessionResult dense =
      probe_shape("dense", registry.at("ssme"), torus.graph(),
                  TorusWorkload::kDiameter, base, opt.threads, 1, t, report,
                  &dense_ns);
  report.check(TorusWorkload::matches(pin, dense),
               "dense probe differs from the pinned meters");

  // sparse: ssme on ring-128 under central-rr, the heaviest thm3 cell.
  const sp::Graph ring = sp::make_ring(128);
  sp::SessionSpec sparse = base;
  sparse.daemon = "central-rr";
  sparse.max_steps = 0;
  (void)probe_shape("sparse", registry.at("ssme"), ring, 64, sparse,
                    opt.threads, opt.quick ? 1 : 5, t, report);

  // semi: unbounded unison on the 1M torus, synchronous; about a fifth of
  // the vertices move per step.
  sp::SessionSpec semi = base;
  semi.max_steps = opt.quick ? 4 : 16;
  (void)probe_shape("semi", registry.at("unbounded-unison"), torus.graph(),
                    TorusWorkload::kDiameter, semi, opt.threads, 1, t, report);

  report.metric("engine.parallel.scaling", dense_ns[2] / dense_ns[3], "x");
  report.metric("engine.steps", static_cast<double>(dense.steps), "count");
  report.metric("engine.moves", static_cast<double>(dense.moves), "count");

  // One barrier phase of the pool with nothing to do.
  sp::ShardPool pool(opt.threads - 1);
  constexpr int kCalls = 1000;
  for (int batch = 0; batch < 20; ++batch) {
    const SpanScope span(&t, "shardpool.run_x1000");
    for (int i = 0; i < kCalls; ++i) pool.run(opt.threads, [](std::size_t) {});
  }
  report.metric("shardpool.phase_ns",
                median_ms(t, "shardpool.run_x1000") * 1e6 / kCalls, "ns");
}

// --------------------------------------------------------------- campaign

void probe_campaign(const Options& opt, Tracer& t, Report& report) {
  const std::vector<sc::CampaignGrid> grids = paper_grids(opt.seed, opt.quick);
  for (int rep = 0; rep < 5; ++rep) {
    const SpanScope span(&t, "campaign.expand_grid");
    for (const sc::CampaignGrid& grid : grids) (void)sc::expand_grid(grid);
  }

  const auto pass = [&](unsigned threads, const char* name) {
    sc::RunnerOptions runner;
    runner.threads = threads;
    std::vector<sc::CampaignResult> results;
    const SpanScope span(&t, name);
    for (const sc::CampaignGrid& grid : grids) {
      results.push_back(sc::run_campaign(grid, runner));
    }
    return results;
  };
  const std::vector<sc::CampaignResult> tn =
      pass(opt.threads, "campaign.pass_tN");
  const std::vector<sc::CampaignResult> t1 = pass(1, "campaign.pass_t1");

  // Every scenario alone, on a pre-built topology, as the runner calls it.
  std::map<std::string, std::pair<sp::Graph, sp::VertexId>> topologies;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    report.check(t1[g].rows == tn[g].rows,
                 "campaign rows differ between 1 and N runner threads");
    for (const sc::Scenario& s : sc::expand_grid(grids[g])) {
      auto it = topologies.find(s.topology.label());
      if (it == topologies.end()) {
        sp::Graph graph = sc::make_topology(s.topology);
        const sp::VertexId diam = sp::diameter(graph);
        it = topologies
                 .emplace(s.topology.label(),
                          std::make_pair(std::move(graph), diam))
                 .first;
      }
      sp::SessionSpec spec;
      spec.daemon = s.daemon;
      spec.init = s.init;
      spec.seed = s.seed;
      spec.max_steps = s.max_steps;
      spec.perturb = s.perturb;
      spec.meters_only = true;
      const sp::ProtocolEntry& entry =
          sp::ProtocolRegistry::instance().at(s.protocol);
      sp::SessionResult res;
      {
        const SpanScope span(&t, "campaign.scenario", s.index);
        res = entry.run_on(it->second.first, it->second.second, spec);
      }
      const sc::ScenarioResult& row = t1[g].rows.at(s.index);
      const bool ok = report.check(
          res.steps == row.steps && res.moves == row.moves &&
              res.converged == row.converged && res.converged,
          "scenario " + std::to_string(s.index) +
              " alone differs from its row");
      report.attempt(1, ok ? 0 : 1);
    }
  }

  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::vector<sc::CellSummary>> cells;
    for (const sc::CampaignResult& res : t1) {
      cells.push_back(sc::aggregate(res));
    }
    const SpanScope span(&t, "campaign.artifacts");
    for (std::size_t g = 0; g < t1.size(); ++g) {
      (void)sc::to_json(t1[g], cells[g]);
      (void)sc::cells_to_csv(cells[g]);
    }
  }

  const double t1_ms = median_ms(t, "campaign.pass_t1");
  const double tn_ms = median_ms(t, "campaign.pass_tN");
  const std::vector<double> scenario_ms = t.durations_ms("campaign.scenario");
  const double max_ms =
      *std::max_element(scenario_ms.begin(), scenario_ms.end());
  report.metric("campaign.parallel_efficiency",
                t1_ms / (static_cast<double>(opt.threads) * tn_ms), "ratio");
  report.metric("campaign.scenario_ms.p50", median(scenario_ms), "ms");
  report.metric("campaign.scenario_ms.p99", percentile(scenario_ms, 0.99),
                "ms");
  report.metric("campaign.scenario_ms.max", max_ms, "ms");
  report.metric("campaign.straggler_share", max_ms / tn_ms, "ratio");
  report.metric("campaign.expand_grid_ms", median_ms(t, "campaign.expand_grid"),
                "ms");
  report.metric("campaign.artifacts_ms", median_ms(t, "campaign.artifacts"),
                "ms");
}

// ------------------------------------------------------------------ serve

void probe_serve(const Options& opt, TraceLog& log, Tracer& t,
                 Report& report) {
  ServeReplay replay(opt);
  replay.setup();
  (void)replay.run(opt.quick ? 1.0 : 3.0, &log, report);

  const std::vector<ServeReplay::ColdKey>& keys = replay.cold_keys();
  const std::size_t stride = std::max<std::size_t>(1, keys.size() / 400);
  const sp::Graph torus = sp::make_torus(8, 8);
  const sp::Graph ring = sp::make_ring(32);
  const sp::VertexId torus_diam = sp::diameter(torus);
  const sp::VertexId ring_diam = sp::diameter(ring);
  std::vector<std::pair<std::string, std::string>> cached;  // key, payload
  for (std::size_t k = 0; k < keys.size(); k += stride) {
    const std::string line = ServeReplay::request_line(k, keys[k].params);
    sv::SessionRequest sreq;
    std::string canonical;
    {
      const SpanScope span(&t, "serve.decode", k);
      const sv::Request req = sv::parse_request(line);
      sreq = sv::decode_session_params(req.params);
      canonical = sv::canonical_session_string(sreq);
    }
    const bool on_ring = sreq.topology == "ring 32";
    const sp::ProtocolEntry& entry =
        sp::ProtocolRegistry::instance().at(sreq.protocol);
    sp::SessionResult res;
    {
      const SpanScope span(&t, "serve.session", k);
      res = entry.run_on(on_ring ? ring : torus,
                         on_ring ? ring_diam : torus_diam, sreq.spec);
    }
    std::string payload;
    {
      const SpanScope span(&t, "serve.render", k);
      payload = sv::session_result_to_json(sreq, res, false).dump();
      (void)sv::render_result_line_raw(
          sv::JsonValue(static_cast<std::int64_t>(k)), payload);
    }
    const bool ok =
        report.check(fnv1a(payload) == keys[k].payload_hash,
                     "serve: direct bytes differ for " + keys[k].params);
    report.attempt(1, ok ? 0 : 1);
    cached.emplace_back(std::move(canonical), std::move(payload));
  }

  sv::ResultCache cache(256u << 20);
  for (const auto& [key, payload] : cached) cache.insert(key, payload);
  constexpr std::size_t kLookups = 100;
  for (std::size_t batch = 0; batch < 50; ++batch) {
    std::size_t hits = 0;
    {
      const SpanScope span(&t, "serve.cache_lookup_x100");
      for (std::size_t i = 0; i < kLookups; ++i) {
        const std::string& key =
            cached[(batch * kLookups + i) % cached.size()].first;
        hits += cache.lookup(key).has_value() ? 1 : 0;
      }
    }
    report.check(hits == kLookups, "serve: cache lookup missed a stored key");
  }

  const double decode_us = median_ms(t, "serve.decode") * 1e3;
  const double lookup_us =
      median_ms(t, "serve.cache_lookup_x100") * 1e3 / kLookups;
  const double render_us = median_ms(t, "serve.render") * 1e3;
  const double session_ms = median_ms(t, "serve.session");
  report.metric("serve.decode_us", decode_us, "us");
  report.metric("serve.cache_lookup_us", lookup_us, "us");
  report.metric("serve.render_us", render_us, "us");
  report.metric("serve.session_ms", session_ms, "ms");
  report.metric(
      "serve.hop_us",
      median(replay.warm_ms()) * 1e3 - decode_us - lookup_us - render_us,
      "us");
  report.metric("serve.cold_overhead_ms",
                median(replay.cold_ms()) - session_ms, "ms");

  const sv::JsonValue& stats = replay.stats();
  const sv::JsonValue* cache_stats = stats.find("cache");
  const auto count = [](const sv::JsonValue* object, const char* field) {
    const sv::JsonValue* v = object ? object->find(field) : nullptr;
    return v ? static_cast<double>(v->as_int()) : -1.0;
  };
  const double misses = count(cache_stats, "misses");
  report.metric("serve.cache.hits", count(cache_stats, "hits"), "count");
  report.metric("serve.cache.misses", misses, "count");
  report.metric("serve.cache.bytes", count(cache_stats, "resident_bytes"),
                "bytes");
  report.metric("serve.busy_rejections", count(&stats, "busy_rejections"),
                "count");
  report.metric("serve.protocol_errors", count(&stats, "protocol_errors"),
                "count");
  // Misses beyond one per distinct key (cold keys and the warm-up's): a
  // warm replay that reached a worker before the cold reply's cache
  // insert landed.
  report.metric("serve.cache.extra_misses",
                misses - static_cast<double>(keys.size() +
                                             ServeReplay::warmup_sessions()),
                "count");
}

// ------------------------------------------------------------- fault_plan

void probe_fault(const Options& opt, Tracer& t, Report& report) {
  const sp::Graph g = sp::make_torus(200, 200);
  const sp::ProtocolEntry& unison =
      sp::ProtocolRegistry::instance().at("unison");
  sp::ShardPool pool(opt.threads - 1);
  sp::SessionSpec spec;
  spec.daemon = "synchronous";
  spec.init = "random";
  spec.seed = opt.seed;
  spec.max_steps = opt.quick ? 64 : 256;
  spec.engine = sp::EngineKind::kParallel;
  spec.pool = &pool;
  spec.meters_only = true;
  spec.perturb = "periodic:period=32;k=400;epochs=4";
  std::optional<sp::SessionResult> first;
  for (const bool all_threads : {false, true}) {
    spec.threads = all_threads ? opt.threads : 1;
    const char* name = all_threads ? "fault.perturbed_session.tN"
                                   : "fault.perturbed_session.t1";
    for (int rep = 0; rep < 3; ++rep) {
      const SpanScope span(&t, name);
      const sp::SessionResult res = unison.run_on(g, 200, spec);
      if (!first) first = res;
      const bool ok = report.check(same_meters(*first, res) &&
                                       res.perturb_epochs ==
                                           first->perturb_epochs,
                                   "perturbed session differs across "
                                   "thread counts");
      report.attempt(1, ok ? 0 : 1);
    }
  }
  report.metric("fault.perturbed_session_ms.t1",
                median_ms(t, "fault.perturbed_session.t1"), "ms");
  report.metric("fault.perturbed_session_ms.tN",
                median_ms(t, "fault.perturbed_session.tN"), "ms");
}

}  // namespace

void probe_layers(const Options& opt, TraceLog& log, Report& report) {
  Tracer& t = *log.add();
  probe_graph(opt, t, report);
  probe_engines(opt, t, report);
  probe_campaign(opt, t, report);
  probe_serve(opt, log, t, report);
  probe_fault(opt, t, report);
}

}  // namespace perfbench
