// The traced run's layer probes: each public entry point of a layer is
// called on its own, inside spans, and the per-layer metrics are derived
// from those spans (graph, sim engines, campaign, serve, fault_plan).
#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include "bench.hpp"
#include "workloads.hpp"

namespace perfbench {

void probe_layers(const Options& opt, TraceLog& log, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_HPP
