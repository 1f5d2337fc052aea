// Shared pieces of the end-to-end benchmark: clocks and order
// statistics, the in-memory span recorder, and the result report.
//
// The benchmark reaches the program only through its public functions
// (ProtocolEntry::run_on, campaign::run_campaign/expand_grid,
// serve::SessionServer + LineClient, the graph generators) and times
// those calls from outside; nothing under src/ is instrumented.
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of the samples (mean of the middle two for even counts).
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// The share of this machine's CPU time the hypervisor withheld (steal
/// time in /proc/stat) between construction and share().  On a shared
/// host this is the interference a measurement cannot control; 0 where
/// /proc/stat is not readable.
class StealMeter {
 public:
  StealMeter() : start_(read()) {}
  [[nodiscard]] double share() const;

 private:
  struct Ticks {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
  };
  [[nodiscard]] static Ticks read();
  Ticks start_;
};

/// Indices of the quieter half of a window's samples: those whose steal
/// share is at most the median.  Every workload computes its metrics
/// over these, so interference that hits part of a run does not decide
/// its figures.
[[nodiscard]] std::vector<std::size_t> quieter_half(
    const std::vector<double>& steal);

/// One timed call of a batch workload (a torus session, a campaign pass).
struct Sample {
  double took_s = 0.0;
  double moves = 0.0;
  double sessions = 0.0;
  double steal = 0.0;  ///< StealMeter::share() over the call
};

struct BatchMetrics {
  double moves_per_s = 0.0;
  double sessions_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Medians of the per-call rates and latency percentiles over the
/// quieter half of the calls.
[[nodiscard]] BatchMetrics batch_metrics(const std::vector<Sample>& samples);

/// FNV-1a over bytes: the benchmark's fingerprint for artifacts and
/// reply payloads.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

/// One timed call into a layer.  Spans of one request share `request`;
/// `parent` indexes the enclosing span in the same Tracer (-1 at top).
struct Span {
  const char* name = "";
  std::uint64_t request = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// A process-lifetime copy of `name`, for span names built at run time.
[[nodiscard]] const char* intern(const std::string& name);

/// Spans of one thread, kept in memory until the run writes them out.
class Tracer {
 public:
  explicit Tracer(unsigned thread) : thread_(thread) { spans_.reserve(1024); }

  [[nodiscard]] std::int32_t open(const char* name, std::uint64_t request);
  void close(std::int32_t index);

  [[nodiscard]] unsigned thread() const { return thread_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations in milliseconds of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;

 private:
  unsigned thread_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null tracer makes it free, so the untraced runs share
/// the traced code path.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer),
        index_(tracer ? tracer->open(name, request) : -1) {}
  ~SpanScope() {
    if (tracer_) tracer_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

/// Writes every span of every tracer as one JSON object per line.
void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers);

/// What one run reports: the correctness verdict, sessions attempted and
/// failed, and the metrics in emission order.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check (printed to stderr) and marks the run
  /// incorrect; returns `ok` so callers can count failed sessions.
  bool check(bool ok, const std::string& what);
  void attempt(std::uint64_t sessions, std::uint64_t failed) {
    attempted_ += sessions;
    failed_ += failed;
  }
  [[nodiscard]] bool correct() const { return correct_ && failed_ == 0; }
  /// The one-line JSON result the benchmark prints last.
  [[nodiscard]] std::string result_line() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Command-line settings shared by the workloads and the layer probes.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks the traced run's layer probes to seconds (the smoke test).
  bool quick = false;
  std::string pinned_path;
  std::string trace_out;
  /// min(4, nproc): engine threads, campaign runner threads.
  unsigned threads = 1;
};

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP
