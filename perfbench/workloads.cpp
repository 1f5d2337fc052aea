#include "workloads.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "campaign/artifacts.hpp"
#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "serve/wire.hpp"

namespace perfbench {

namespace sp = specstab;
namespace sc = specstab::campaign;
namespace sv = specstab::serve;

Tracer* TraceLog::add() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return &tracers_.emplace_back(static_cast<unsigned>(tracers_.size()));
}

std::vector<const Tracer*> TraceLog::tracers() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Tracer*> out;
  for (const Tracer& t : tracers_) out.push_back(&t);
  return out;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "ssme-torus1m-sync") {
    return std::make_unique<TorusWorkload>(opt);
  }
  if (opt.workload == "paper-campaign") {
    return std::make_unique<CampaignWorkload>(opt);
  }
  if (opt.workload == "serve-replay") return std::make_unique<ServeReplay>(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

namespace {

void emit_batch(const std::vector<Sample>& samples, Report& report) {
  const BatchMetrics m = batch_metrics(samples);
  report.metric("moves_per_s", m.moves_per_s, "1/s");
  report.metric("sessions_per_s", m.sessions_per_s, "1/s");
  report.metric("p50_ms", m.p50_ms, "ms");
  report.metric("p99_ms", m.p99_ms, "ms");
}

}  // namespace

// ------------------------------------------------------ ssme-torus1m-sync

std::vector<PinnedSession> read_pinned(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pinned values " + path);
  std::vector<PinnedSession> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    PinnedSession pin;
    int converged = 0;
    if (!(fields >> pin.seed >> pin.steps >> pin.moves >> converged >>
          pin.convergence_steps)) {
      throw std::runtime_error("malformed pinned line: " + line);
    }
    pin.converged = converged != 0;
    out.push_back(pin);
  }
  if (out.empty()) throw std::runtime_error("no pinned values in " + path);
  return out;
}

TorusWorkload::TorusWorkload(const Options& opt)
    : opt_(opt), pinned_(read_pinned(opt.pinned_path)) {}

void TorusWorkload::setup() {
  graph_ = sp::make_torus(kSide, kSide);
  pool_ = std::make_unique<sp::ShardPool>(opt_.threads - 1);
}

void TorusWorkload::teardown() {
  pool_.reset();
  graph_ = sp::Graph();
}

sp::SessionSpec TorusWorkload::spec(std::uint64_t seed, sp::EngineKind engine,
                                    unsigned threads, sp::ShardPool* pool) {
  sp::SessionSpec spec;
  spec.daemon = "synchronous";
  spec.init = "random";
  spec.seed = seed;
  spec.max_steps = kStepCap;
  spec.engine = engine;
  spec.threads = threads;
  spec.pool = pool;
  spec.meters_only = true;
  return spec;
}

bool TorusWorkload::matches(const PinnedSession& pin,
                            const sp::SessionResult& res) {
  return res.steps == pin.steps && res.moves == pin.moves &&
         res.converged == pin.converged &&
         res.convergence_steps == pin.convergence_steps;
}

Window TorusWorkload::run(double seconds, TraceLog* log, Report& report) {
  for (const sp::VertexId side : {6, 7, 10}) {
    const sp::VertexId diam = sp::diameter(sp::make_torus(side, side + 3));
    report.check(diam == side / 2 + (side + 3) / 2,
                 "torus diameter formula at " + std::to_string(side) + "x" +
                     std::to_string(side + 3));
  }
  const sp::ProtocolEntry& ssme = sp::ProtocolRegistry::instance().at("ssme");
  Tracer* tracer = log ? log->add() : nullptr;
  std::uint64_t failed = 0;
  const auto session = [&](std::uint64_t k) {
    const PinnedSession& pin = pinned_[(opt_.seed + k) % pinned_.size()];
    const sp::SessionSpec s =
        spec(pin.seed, sp::EngineKind::kParallel, opt_.threads, pool_.get());
    const StealMeter steal;
    const Clock::time_point t0 = Clock::now();
    sp::SessionResult res;
    {
      const SpanScope span(tracer, "sim.run_on", k);
      res = ssme.run_on(graph_, kDiameter, s);
    }
    const Sample sample{seconds_between(t0, Clock::now()),
                        static_cast<double>(res.moves), 1.0, steal.share()};
    if (!report.check(matches(pin, res),
                      "torus session seed " + std::to_string(pin.seed) +
                          ": steps " + std::to_string(res.steps) + " moves " +
                          std::to_string(res.moves) +
                          " differ from the pinned incremental meters")) {
      ++failed;
    }
    return sample;
  };

  // One untimed session first: the engine's buffers are allocated and
  // faulted in once, as they are for every later session.
  (void)session(0);
  sessions_.clear();
  const StealMeter window_steal;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t k = 1;
       sessions_.empty() || seconds_between(start, Clock::now()) < seconds;
       ++k) {
    sessions_.push_back(session(k));
  }
  report.attempt(sessions_.size() + 1, failed);
  return {seconds_between(start, Clock::now()), sessions_.size(),
          window_steal.share()};
}

void TorusWorkload::emit(Report& report) const {
  emit_batch(sessions_, report);
}

// --------------------------------------------------------- paper-campaign

CampaignWorkload::CampaignWorkload(const Options& opt) : opt_(opt) {}

std::vector<sc::CampaignGrid> paper_grids(std::uint64_t seed, bool smoke) {
  std::vector<sc::CampaignGrid> grids = {sc::thm2_grid(smoke),
                                         sc::thm3_grid(smoke)};
  for (sc::CampaignGrid& grid : grids) grid.base_seed += seed;
  return grids;
}

void CampaignWorkload::setup() {
  grids_ = paper_grids(opt_.seed, false);
  expected_rows_.clear();
  std::vector<std::string> seen;
  for (const sc::CampaignGrid& grid : grids_) {
    const std::vector<sc::Scenario> items = sc::expand_grid(grid);
    expected_rows_.push_back(items.size());
    // Every distinct topology instantiated with its diameter: the
    // per-topology work a user pays before the grid's first session.
    for (const sc::TopologySpec& topo : grid.topologies) {
      const std::string label = topo.label();
      if (std::find(seen.begin(), seen.end(), label) != seen.end()) continue;
      seen.push_back(label);
      (void)sp::diameter(sc::make_topology(topo));
    }
  }
}

Window CampaignWorkload::run(double seconds, TraceLog* log, Report& report) {
  Tracer* tracer = log ? log->add() : nullptr;
  sc::RunnerOptions runner;
  runner.threads = opt_.threads;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  csv_hashes_.clear();
  const auto pass = [&](std::uint64_t index) {
    std::vector<sc::CampaignResult> results;
    const StealMeter steal;
    const Clock::time_point t0 = Clock::now();
    {
      const SpanScope span(tracer, "campaign.pass", index);
      for (const sc::CampaignGrid& grid : grids_) {
        const SpanScope call(tracer, "campaign.run_campaign", index);
        results.push_back(sc::run_campaign(grid, runner));
      }
    }
    Sample sample{seconds_between(t0, Clock::now()), 0.0, 0.0, steal.share()};
    for (std::size_t g = 0; g < results.size(); ++g) {
      const sc::CampaignResult& res = results[g];
      sample.sessions += static_cast<double>(res.rows.size());
      for (const sc::ScenarioResult& row : res.rows) {
        sample.moves += static_cast<double>(row.moves);
      }
      attempted += expected_rows_[g];
      const std::size_t converged = res.converged_count();
      const std::string where = "campaign grid " + std::to_string(g) +
                                " pass " + std::to_string(index);
      report.check(res.rows.size() == expected_rows_[g],
                   where + ": " + std::to_string(res.rows.size()) + " of " +
                       std::to_string(expected_rows_[g]) + " rows");
      report.check(converged == res.rows.size(),
                   where + ": " + std::to_string(converged) + "/" +
                       std::to_string(res.rows.size()) + " converged");
      failed += expected_rows_[g] - std::min(converged, expected_rows_[g]);
      const std::uint64_t hash = fnv1a(sc::runs_to_csv(res));
      if (index == 0) csv_hashes_.push_back(hash);
      if (!report.check(hash == csv_hashes_[g],
                        where + ": runs CSV differs from the first pass")) {
        failed += res.rows.size();
      }
    }
    return sample;
  };

  // One untimed pass first; it also fixes the runs CSV every timed pass
  // must reproduce byte for byte.
  (void)pass(0);
  passes_.clear();
  const StealMeter window_steal;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t index = 1;
       passes_.empty() || seconds_between(start, Clock::now()) < seconds;
       ++index) {
    passes_.push_back(pass(index));
  }
  report.attempt(attempted, failed);
  std::uint64_t sessions = 0;
  for (const Sample& p : passes_) {
    sessions += static_cast<std::uint64_t>(p.sessions);
  }
  return {seconds_between(start, Clock::now()), sessions,
          window_steal.share()};
}

void CampaignWorkload::emit(Report& report) const {
  emit_batch(passes_, report);
}

// ----------------------------------------------------------- serve-replay

namespace {

/// The cold mix: registry protocols on two small topologies under three
/// daemons, each session 0.02-3 ms when run directly.  ssme-safety is
/// left out: it runs a fixed multi-thousand-step horizon (2-25 ms), which
/// would turn p99 into a measurement of that one protocol.
struct ColdShape {
  const char* protocol;
  const char* topology;
  const char* daemon;
};

std::vector<ColdShape> cold_shapes() {
  static constexpr const char* kProtocols[] = {
      "ssme",     "dijkstra-ring", "unison", "unbounded-unison",
      "matching", "min-plus-one",  "leader", "coloring"};
  static constexpr const char* kTopologies[] = {"torus 8 8", "ring 32"};
  static constexpr const char* kDaemons[] = {"synchronous", "central-rr",
                                             "bernoulli-0.5"};
  std::vector<ColdShape> out;
  for (const char* protocol : kProtocols) {
    for (const char* topology : kTopologies) {
      if (std::string(protocol) == "dijkstra-ring" &&
          std::string(topology) != "ring 32") {
        continue;
      }
      for (const char* daemon : kDaemons) {
        out.push_back({protocol, topology, daemon});
      }
    }
  }
  return out;
}

std::string cold_params(const ColdShape& shape, std::uint64_t seed) {
  return std::string("{\"protocol\":\"") + shape.protocol +
         "\",\"topology\":\"" + shape.topology + "\",\"daemon\":\"" +
         shape.daemon + "\",\"seed\":" + std::to_string(seed) + "}";
}

std::int64_t moves_field(const std::string& payload) {
  static constexpr std::string_view kKey = "\"moves\":";
  const std::size_t at = payload.find(kKey);
  if (at == std::string::npos) return -1;
  return std::strtoll(payload.c_str() + at + kKey.size(), nullptr, 10);
}

}  // namespace

struct ServeReplay::Connection {
  std::vector<double> warm_ms;
  std::vector<double> cold_ms;
  std::vector<ColdKey> keys;
  std::uint64_t failed = 0;
};

ServeReplay::ServeReplay(const Options& opt) : opt_(opt) {}

ServeReplay::~ServeReplay() { teardown(); }

void ServeReplay::teardown() {
  clients_.clear();
  if (server_) {
    server_->initiate_shutdown();
    server_->wait();
    server_.reset();
  }
}

void ServeReplay::setup() {
  sv::ServeOptions options;
  options.endpoint = sv::Endpoint::tcp(0);
  options.threads = kWorkers;
  options.engine_threads = 1;
  // Room for every cold reply of a window: a warm replay must hit.
  options.cache_bytes = 256u << 20;
  server_ = std::make_unique<sv::SessionServer>(options);
  server_->start();  // returns once the endpoint accepts connections
  for (unsigned c = 0; c < kConnections; ++c) {
    clients_.push_back(std::make_unique<sv::LineClient>(server_->endpoint()));
  }
  // Warm the server as a deployment would: one session per cold shape
  // builds the topology instances and runs each protocol once.  The
  // seed lies outside every cold seed range, so no window replays it.
  for (const ColdShape& shape : cold_shapes()) {
    const std::string reply = clients_[0]->roundtrip(
        request_line(0, cold_params(shape, kWarmupSeed)));
    if (reply.find("\"result\":") == std::string::npos) {
      throw std::runtime_error("serve warm-up failed: " + reply);
    }
  }
}

std::size_t ServeReplay::warmup_sessions() { return cold_shapes().size(); }

std::string ServeReplay::request_line(std::uint64_t id,
                                      const std::string& params) {
  return "{\"id\":" + std::to_string(id) +
         ",\"method\":\"run\",\"params\":" + params + "}";
}

void ServeReplay::run_connection(unsigned index, TraceLog* log,
                                 Connection& out) {
  Tracer* tracer = log ? log->add() : nullptr;
  sv::LineClient& client = *clients_[index];
  const std::vector<ColdShape> shapes = cold_shapes();
  std::mt19937_64 rng(opt_.seed * 0x9e3779b97f4a7c15ull +
                      segments_run_ * 131 + index);
  // Cold seeds are disjoint across connections, segments and workload
  // seeds, so every cold request is a tuple the server has never seen.
  const std::uint64_t seed_base = (opt_.seed % 1000003) * 1000000000000ull +
                                  segments_run_ * 20000000ull +
                                  index * 10000000ull;
  out.warm_ms.reserve(kSegmentRequests);
  out.cold_ms.reserve(kSegmentRequests / kColdEvery + 1);
  for (std::uint64_t i = 0; i < kSegmentRequests; ++i) {
    const bool cold = i % kColdEvery == 0;
    std::size_t key = 0;
    std::string params;
    if (cold) {
      params = cold_params(shapes[rng() % shapes.size()], seed_base + i);
    } else {
      key = static_cast<std::size_t>(rng() % out.keys.size());
      params = out.keys[key].params;
    }
    const std::uint64_t id = (static_cast<std::uint64_t>(index) << 40) | i;
    const std::string line = request_line(id, params);
    std::string reply;
    const Clock::time_point t0 = Clock::now();
    {
      const SpanScope span(tracer, cold ? "serve.cold" : "serve.warm", id);
      reply = client.roundtrip(line);
    }
    const double took_ms = seconds_between(t0, Clock::now()) * 1e3;
    (cold ? out.cold_ms : out.warm_ms).push_back(took_ms);

    const std::string prefix =
        "{\"id\":" + std::to_string(id) + ",\"result\":";
    if (reply.size() <= prefix.size() ||
        reply.compare(0, prefix.size(), prefix) != 0 || reply.back() != '}') {
      ++out.failed;
      if (out.failed <= 3) {
        std::fprintf(stderr, "serve: not a result reply: %.200s\n",
                     reply.c_str());
      }
      // A placeholder key keeps later warm draws defined.
      if (cold) out.keys.push_back({params, 0, 0, -1});
      continue;
    }
    const std::string_view payload(reply.data() + prefix.size(),
                                   reply.size() - prefix.size() - 1);
    if (cold) {
      out.keys.push_back({params, fnv1a(payload), payload.size(),
                          moves_field(std::string(payload))});
    } else if (fnv1a(payload) != out.keys[key].payload_hash ||
               payload.size() != out.keys[key].payload_bytes) {
      ++out.failed;
      if (out.failed <= 3) {
        std::fprintf(stderr, "serve: warm bytes differ from cold for %s\n",
                     params.c_str());
      }
    }
  }
}

Window ServeReplay::run(double seconds, TraceLog* log, Report& report) {
  // Each segment gets a fresh server and fresh connections, so one
  // placement of the six client/reader/worker threads on the cores does
  // not decide the whole run, and a fixed request count per segment keeps
  // the cache, and so the RSS, the same size whatever the throughput.
  segments_.clear();
  const StealMeter window_steal;
  const Clock::time_point start = Clock::now();
  Window window;
  while (segments_.empty() || seconds_between(start, Clock::now()) < seconds) {
    if (!segments_.empty()) {
      teardown();
      setup();
    }
    const Segment seg = run_segment(log, report);
    segments_.push_back(seg);
    window.sessions += seg.sessions;
  }
  window.elapsed_s = seconds_between(start, Clock::now());
  window.steal = window_steal.share();
  return window;
}

ServeReplay::Segment ServeReplay::run_segment(TraceLog* log, Report& report) {
  std::vector<Connection> conns(kConnections);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  std::vector<std::string> errors(kConnections);
  const StealMeter steal;
  for (unsigned c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      try {
        run_connection(c, log, conns[c]);
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Segment seg;
  seg.elapsed_s = seconds_between(start, Clock::now());
  seg.steal = steal.share();
  ++segments_run_;

  warm_ms_.clear();
  cold_ms_.clear();
  cold_keys_.clear();
  std::uint64_t failed = 0;
  for (unsigned c = 0; c < kConnections; ++c) {
    report.check(errors[c].empty(), "serve connection: " + errors[c]);
    warm_ms_.insert(warm_ms_.end(), conns[c].warm_ms.begin(),
                    conns[c].warm_ms.end());
    cold_ms_.insert(cold_ms_.end(), conns[c].cold_ms.begin(),
                    conns[c].cold_ms.end());
    cold_keys_.insert(cold_keys_.end(), conns[c].keys.begin(),
                      conns[c].keys.end());
    failed += conns[c].failed + (errors[c].empty() ? 0 : 1);
  }
  seg.sessions = warm_ms_.size() + cold_ms_.size();
  report.check(failed == 0, "serve: " + std::to_string(failed) +
                                " failed replies (error, busy or wrong bytes)");
  report.check(cold_ms_.size() * kColdEvery >= seg.sessions &&
                   cold_ms_.size() * kColdEvery <
                       seg.sessions + kColdEvery * kConnections,
               "serve: cold share is not 1 in " + std::to_string(kColdEvery));

  // Cold replies must be the direct session's bytes: re-run a spread
  // sample without the server and compare fingerprints.
  const std::size_t stride = std::max<std::size_t>(1, cold_keys_.size() / 32);
  for (std::size_t k = 0; k < cold_keys_.size(); k += stride) {
    const ColdKey& key = cold_keys_[k];
    const sv::SessionRequest sreq = sv::decode_session_params(
        sv::parse_request(request_line(0, key.params)).params);
    const sp::ProtocolEntry& entry =
        sp::ProtocolRegistry::instance().at(sreq.protocol);
    const sp::Graph g = sc::make_topology(
        sreq.topology == "ring 32" ? sc::TopologySpec{"ring", 32}
                                   : sc::TopologySpec{"torus", 8, 8});
    const std::string direct =
        sv::session_result_to_json(sreq, entry.run(g, sreq.spec), false).dump();
    if (!report.check(fnv1a(direct) == key.payload_hash,
                      "serve: reply for " + key.params +
                          " differs from the direct session")) {
      ++failed;
    }
  }

  const std::string stats_reply =
      clients_[0]->roundtrip("{\"id\":0,\"method\":\"stats\"}");
  const sv::JsonValue parsed = sv::JsonValue::parse(stats_reply);
  const sv::JsonValue* result = parsed.find("result");
  if (report.check(result != nullptr, "serve: stats reply " + stats_reply)) {
    stats_ = *result;
    const sv::JsonValue* cache = stats_.find("cache");
    report.check(cache && cache->find("evictions")->as_int() == 0,
                 "serve: the cache evicted entries; warm replays would miss");
  }
  report.attempt(seg.sessions, failed);

  std::vector<double> all = warm_ms_;
  all.insert(all.end(), cold_ms_.begin(), cold_ms_.end());
  double moves = 0.0;
  for (const ColdKey& key : cold_keys_) moves += static_cast<double>(key.moves);
  seg.moves_per_s = moves / seg.elapsed_s;
  seg.sessions_per_s = static_cast<double>(seg.sessions) / seg.elapsed_s;
  seg.p50_ms = median(all);
  seg.p99_ms = percentile(all, 0.99);
  return seg;
}

void ServeReplay::emit(Report& report) const {
  std::vector<double> steal;
  for (const Segment& seg : segments_) steal.push_back(seg.steal);
  const std::vector<std::size_t> kept = quieter_half(steal);
  const auto across = [&](double Segment::*field) {
    std::vector<double> values;
    for (const std::size_t i : kept) values.push_back(segments_[i].*field);
    return median(values);
  };
  report.metric("moves_per_s", across(&Segment::moves_per_s), "1/s");
  report.metric("sessions_per_s", across(&Segment::sessions_per_s), "1/s");
  report.metric("p50_ms", across(&Segment::p50_ms), "ms");
  report.metric("p99_ms", across(&Segment::p99_ms), "ms");
}

}  // namespace perfbench
