#include "bench.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <mutex>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double StealMeter::share() const {
  const Ticks now = read();
  const std::uint64_t total = now.total - start_.total;
  return total == 0 ? 0.0
                    : static_cast<double>(now.steal - start_.steal) /
                          static_cast<double>(total);
}

StealMeter::Ticks StealMeter::read() {
  // "cpu  user nice system idle iowait irq softirq steal ..." in ticks.
  std::ifstream stat("/proc/stat");
  std::string label;
  Ticks ticks;
  if (!(stat >> label) || label != "cpu") return ticks;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(stat >> value)) return Ticks{};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

std::vector<std::size_t> quieter_half(const std::vector<double>& steal) {
  const double cut = median(steal);
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= cut) kept.push_back(i);
  }
  return kept;
}

BatchMetrics batch_metrics(const std::vector<Sample>& samples) {
  std::vector<double> steal;
  for (const Sample& s : samples) steal.push_back(s.steal);
  std::vector<double> moves_rate, sessions_rate, ms;
  for (const std::size_t i : quieter_half(steal)) {
    const Sample& s = samples[i];
    moves_rate.push_back(s.moves / s.took_s);
    sessions_rate.push_back(s.sessions / s.took_s);
    ms.push_back(s.took_s * 1e3);
  }
  return {median(moves_rate), median(sessions_rate), median(ms),
          percentile(ms, 0.99)};
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Shortest text that reads back as exactly `value`.
std::string number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric value is not a finite number");
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

}  // namespace

const char* intern(const std::string& name) {
  static std::mutex mutex;
  static std::deque<std::string> names;  // deque: c_str() stays valid
  const std::lock_guard<std::mutex> lock(mutex);
  for (const std::string& n : names) {
    if (n == name) return n.c_str();
  }
  return names.emplace_back(name).c_str();
}

std::int32_t Tracer::open(const char* name, std::uint64_t request) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  spans_.back().start_ns = now_ns();  // last, so the clock read is not timed
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name && s.end_ns >= s.start_ns) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (const Tracer* t : tracers) {
    for (std::size_t i = 0; i < t->spans().size(); ++i) {
      const Span& s = t->spans()[i];
      out << "{\"thread\":" << t->thread() << ",\"span\":" << i
          << ",\"name\":\"" << s.name << "\",\"request\":" << s.request
          << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
  if (!out.flush()) throw std::runtime_error("short write to " + path);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

std::string Report::result_line() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  // VmHWM belongs to this process image alone; getrusage's ru_maxrss
  // also carries the parent's RSS from before exec (here, Python's).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench
