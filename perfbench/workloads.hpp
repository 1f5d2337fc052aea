// The three workloads.  Each is set up (several times, for the setup_s
// median), then runs one timed window that checks every output it
// produces and keeps the samples its end-to-end metrics come from.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/scenario.hpp"
#include "graph/graph.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/protocol_registry.hpp"

namespace perfbench {

/// Hands each recording thread its own Tracer; owns them until the run
/// writes the spans out.
class TraceLog {
 public:
  [[nodiscard]] Tracer* add();
  [[nodiscard]] std::vector<const Tracer*> tracers() const;

 private:
  mutable std::mutex mutex_;
  std::deque<Tracer> tracers_;  // deque: handed-out pointers stay valid
};

/// The timed window's extent, how many sessions it completed (the
/// tracing overhead compares sessions per second between two windows),
/// and the host steal share over it.
struct Window {
  double elapsed_s = 0.0;
  std::uint64_t sessions = 0;
  double steal = 0.0;
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// One complete set-up, from a torn-down state.
  virtual void setup() = 0;
  /// Releases what setup() built (not part of the timed set-up).
  virtual void teardown() = 0;
  /// Runs sessions for `seconds` of wall clock, checking every output.
  virtual Window run(double seconds, TraceLog* log, Report& report) = 0;
  /// The end-to-end metrics of the last window (setup_s and peak_rss_mb
  /// are added by the caller).
  virtual void emit(Report& report) const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& opt);

/// The paper's campaign presets (thm2, thm3) with their base seeds offset
/// by the workload seed; `smoke` picks the presets' seconds-scale grids.
[[nodiscard]] std::vector<specstab::campaign::CampaignGrid> paper_grids(
    std::uint64_t seed, bool smoke);

// ------------------------------------------------------ ssme-torus1m-sync

/// Meters the incremental engine produced for one torus session.
struct PinnedSession {
  std::uint64_t seed = 0;
  std::int64_t steps = 0;
  std::int64_t moves = 0;
  bool converged = false;
  std::int64_t convergence_steps = -1;
};

/// Reads `seed steps moves converged convergence_steps` lines ('#'
/// starts a comment); throws std::runtime_error when the file is
/// missing or malformed.
[[nodiscard]] std::vector<PinnedSession> read_pinned(const std::string& path);

class TorusWorkload final : public Workload {
 public:
  static constexpr specstab::VertexId kSide = 1000;
  /// ⌊r/2⌋ + ⌊c/2⌋: all-pairs diameter() cannot run at n = 1M, so the
  /// workload passes the closed form (checked on small tori first).
  static constexpr specstab::VertexId kDiameter = kSide / 2 + kSide / 2;
  static constexpr specstab::StepIndex kStepCap = 32;

  explicit TorusWorkload(const Options& opt);
  void setup() override;
  void teardown() override;
  Window run(double seconds, TraceLog* log, Report& report) override;
  void emit(Report& report) const override;

  /// The workload's session: SSME from a random configuration drawn
  /// from `seed`, synchronous daemon, kStepCap steps.
  [[nodiscard]] static specstab::SessionSpec spec(std::uint64_t seed,
                                                  specstab::EngineKind engine,
                                                  unsigned threads,
                                                  specstab::ShardPool* pool);
  /// Compares one session's meters with its pinned entry.
  static bool matches(const PinnedSession& pin,
                      const specstab::SessionResult& res);
  [[nodiscard]] const specstab::Graph& graph() const { return graph_; }
  [[nodiscard]] specstab::ShardPool* pool() const { return pool_.get(); }
  [[nodiscard]] const std::vector<PinnedSession>& pinned() const {
    return pinned_;
  }

 private:
  Options opt_;
  std::vector<PinnedSession> pinned_;
  specstab::Graph graph_;
  std::unique_ptr<specstab::ShardPool> pool_;
  std::vector<Sample> sessions_;
};

// --------------------------------------------------------- paper-campaign

class CampaignWorkload final : public Workload {
 public:
  explicit CampaignWorkload(const Options& opt);
  void setup() override;
  void teardown() override {}
  Window run(double seconds, TraceLog* log, Report& report) override;
  void emit(Report& report) const override;

 private:
  Options opt_;
  std::vector<specstab::campaign::CampaignGrid> grids_;
  std::vector<std::size_t> expected_rows_;
  std::vector<std::uint64_t> csv_hashes_;  // from the window's first pass
  std::vector<Sample> passes_;
};

// ----------------------------------------------------------- serve-replay

class ServeReplay final : public Workload {
 public:
  static constexpr unsigned kWorkers = 2;
  static constexpr unsigned kConnections = 2;
  /// One request in kColdEvery is a never-seen tuple.
  static constexpr std::uint64_t kColdEvery = 10;
  /// The window runs as segments of this many requests per connection
  /// (about a second), each against a fresh server and connections.
  static constexpr std::uint64_t kSegmentRequests = 10000;
  /// The warm-up sessions' seed, above every cold seed range.
  static constexpr std::uint64_t kWarmupSeed = 999999999999ull;

  /// One cold tuple a connection received, with its reply fingerprint.
  struct ColdKey {
    std::string params;  ///< the request's params object, verbatim
    std::uint64_t payload_hash = 0;
    std::size_t payload_bytes = 0;
    std::int64_t moves = 0;
  };

  explicit ServeReplay(const Options& opt);
  ~ServeReplay() override;  // stops the server and joins its threads
  ServeReplay(const ServeReplay&) = delete;
  ServeReplay& operator=(const ServeReplay&) = delete;
  void setup() override;
  void teardown() override;
  Window run(double seconds, TraceLog* log, Report& report) override;
  void emit(Report& report) const override;

  /// Samples of the last segment, in milliseconds.
  [[nodiscard]] const std::vector<double>& warm_ms() const { return warm_ms_; }
  [[nodiscard]] const std::vector<double>& cold_ms() const { return cold_ms_; }
  [[nodiscard]] const std::vector<ColdKey>& cold_keys() const {
    return cold_keys_;
  }
  /// The server's `stats` reply after the last segment.
  [[nodiscard]] const specstab::serve::JsonValue& stats() const {
    return stats_;
  }
  /// Sessions setup() runs to warm each fresh server; each misses the
  /// cache once.
  [[nodiscard]] static std::size_t warmup_sessions();
  /// `{"id":<id>,"method":"run","params":<params>}`.
  [[nodiscard]] static std::string request_line(std::uint64_t id,
                                                const std::string& params);

 private:
  struct Connection;
  /// One server lifetime inside the timed window.
  struct Segment {
    double elapsed_s = 0.0;
    double steal = 0.0;
    std::uint64_t sessions = 0;
    double sessions_per_s = 0.0;
    double moves_per_s = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
  };
  Segment run_segment(TraceLog* log, Report& report);
  void run_connection(unsigned index, TraceLog* log, Connection& out);

  Options opt_;
  std::uint64_t segments_run_ = 0;
  std::unique_ptr<specstab::serve::SessionServer> server_;
  std::vector<std::unique_ptr<specstab::serve::LineClient>> clients_;
  std::vector<Segment> segments_;
  std::vector<double> warm_ms_;
  std::vector<double> cold_ms_;
  std::vector<ColdKey> cold_keys_;
  specstab::serve::JsonValue stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
