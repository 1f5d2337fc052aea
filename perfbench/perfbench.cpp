// End-to-end benchmark of specstab: one process runs one workload.
//
//   perfbench --workload W --seed S --seconds N --trace 0|1
//             --pinned FILE [--trace-out FILE] [--quick]
//   perfbench --pin COUNT     print pinned torus meters for seeds 1..COUNT
//
// Workloads: ssme-torus1m-sync, paper-campaign, serve-replay (see
// NOTES.md).  The untraced run (--trace 0) sets the workload up several
// times, runs its timed window, and prints the end-to-end metrics.  The
// traced run (--trace 1) times a short window of the workload with and
// without spans (the tracing overhead), then probes every layer inside
// spans and prints the per-layer metrics.  Both print a host-facts line
// (the untraced run also a line on its window: length, sessions, host
// steal time) and, last, one JSON result line; the exit code is 0 only
// when every output check passed.
#include <cpuid.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "graph/generators.hpp"
#include "layers.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

// setup_s is the median of repeated set-ups: at least kMinSetups, and
// more while they fit in kSetupBudgetS (the ms-scale ones), at most
// kMaxSetups.
constexpr int kMinSetups = 7;
constexpr int kMaxSetups = 101;
constexpr double kSetupBudgetS = 0.5;

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                    &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]) == 0) {
      return "unknown";
    }
  }
  char text[sizeof(regs) + 1] = {};
  std::memcpy(text, regs, sizeof(regs));
  std::string model(text);
  model.erase(0, model.find_first_not_of(' '));
  for (char& c : model) {
    if (c == '"' || c == '\\') c = ' ';
  }
  return model;
}

std::string host_line(const Options& opt) {
  const long l2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  return "{\"host\": {\"nproc\": " + std::to_string(host_cpus()) +
         ", \"cpu\": \"" + cpu_model() + "\", \"l2_bytes\": " +
         std::to_string(l2) + ", \"l3_bytes\": " + std::to_string(l3) +
         ", \"compiler\": \"" PERFBENCH_COMPILER
         "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
         "\", \"engine_threads\": " + std::to_string(opt.threads) +
         ", \"runner_threads\": " + std::to_string(opt.threads) +
         ", \"serve_workers\": " + std::to_string(ServeReplay::kWorkers) +
         ", \"serve_engine_threads\": 1, \"serve_connections\": " +
         std::to_string(ServeReplay::kConnections) + ", \"workload\": \"" +
         opt.workload + "\", \"seed\": " + std::to_string(opt.seed) +
         ", \"trace\": " + (opt.trace ? "1" : "0") + "}}";
}

/// Prints the pinned-values file for the torus workload: the incremental
/// engine's meters for init seeds 1..count.
int print_pinned(unsigned count) {
  const specstab::Graph g =
      specstab::make_torus(TorusWorkload::kSide, TorusWorkload::kSide);
  const specstab::ProtocolEntry& ssme =
      specstab::ProtocolRegistry::instance().at("ssme");
  std::cout << "# ssme-torus1m-sync: SSME on the 1000x1000 torus, synchronous\n"
               "# daemon, random init, "
            << TorusWorkload::kStepCap
            << "-step cap, diameter 1000; meters from the\n"
               "# incremental engine (perfbench --pin "
            << count
            << ").\n# init_seed steps moves converged convergence_steps\n";
  for (std::uint64_t seed = 1; seed <= count; ++seed) {
    const specstab::SessionResult res = ssme.run_on(
        g, TorusWorkload::kDiameter,
        TorusWorkload::spec(seed, specstab::EngineKind::kIncremental, 1,
                            nullptr));
    std::cout << seed << ' ' << res.steps << ' ' << res.moves << ' '
              << (res.converged ? 1 : 0) << ' ' << res.convergence_steps
              << '\n';
  }
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench --workload W --seed S --seconds N "
               "--trace 0|1 --pinned FILE [--trace-out FILE] [--quick]\n"
               "       perfbench --pin COUNT\n";
  return 2;
}

int run(const Options& opt) {
  Report report;
  const std::unique_ptr<Workload> workload = make_workload(opt);
  std::cout << host_line(opt) << std::endl;
  if (!opt.trace) {
    std::vector<double> setup_s;
    double spent = 0.0;
    while (static_cast<int>(setup_s.size()) < kMinSetups ||
           (spent < kSetupBudgetS &&
            static_cast<int>(setup_s.size()) < kMaxSetups)) {
      if (!setup_s.empty()) workload->teardown();
      const Clock::time_point t0 = Clock::now();
      workload->setup();
      setup_s.push_back(seconds_between(t0, Clock::now()));
      spent += setup_s.back();
    }
    const Window window = workload->run(opt.seconds, nullptr, report);
    std::cout << "{\"window\": {\"seconds\": " << window.elapsed_s
              << ", \"sessions\": " << window.sessions
              << ", \"steal_pct\": " << window.steal * 100.0 << "}}"
              << std::endl;
    workload->emit(report);
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    TraceLog log;
    const double window = opt.quick ? 1.0 : 3.0;
    workload->setup();
    const Window plain = workload->run(window, nullptr, report);
    workload->teardown();
    workload->setup();
    const Window traced = workload->run(window, &log, report);
    const auto rate = [](const Window& w) {
      return static_cast<double>(w.sessions) / w.elapsed_s;
    };
    probe_layers(opt, log, report);
    report.metric("trace.overhead_pct",
                  (rate(plain) / rate(traced) - 1.0) * 100.0, "%");
    if (!opt.trace_out.empty()) write_spans(opt.trace_out, log.tracers());
  }
  std::cout << report.result_line() << std::endl;
  return report.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.threads = std::min(4u, host_cpus());
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--pin" && has_value) {
        return print_pinned(static_cast<unsigned>(std::stoul(argv[++i])));
      } else if (arg == "--workload" && has_value) {
        opt.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        opt.trace = std::string(argv[++i]) != "0";
      } else if (arg == "--pinned" && has_value) {
        opt.pinned_path = argv[++i];
      } else if (arg == "--trace-out" && has_value) {
        opt.trace_out = argv[++i];
      } else if (arg == "--quick") {
        opt.quick = true;
      } else {
        return usage();
      }
    }
    if (opt.workload.empty() || opt.pinned_path.empty() || opt.seconds <= 0.0) {
      return usage();
    }
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
