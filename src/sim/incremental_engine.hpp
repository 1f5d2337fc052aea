// Incremental dirty-set execution engine.
//
// The reference engine (engine.hpp) rescans all n vertices via
// enabled_vertices() and re-evaluates the full legitimacy predicate after
// every daemon action — O(n * steps) guard evaluations, which dominates
// campaign sweeps.  Guards in the Dijkstra state model are *local*: the
// guard of v reads only states within protocol_locality_radius() hops of
// v, so an action activating the set A can only change the enabled
// status of vertices in the radius-r ball around A.  This engine exploits
// that invariant:
//
//   - the enabled set is 64-bit membership mask words plus a sorted vector
//     (EnabledSet), updated after each action by re-testing guards only
//     for the dirty ball B(A, r) and merging the flips in one linear
//     pass;
//   - legitimacy is tracked by an *incremental checker*
//     (IncrementalLegitimacy concept): after each action the checker is
//     told which vertices changed state and updates a cached violation
//     count instead of rescanning — see core/incremental_legitimacy.hpp
//     for the concrete checkers (Gamma_1, spec_ME, single-token, ...).
//
// The dirty-set invariant both sides maintain: between actions, the
// EnabledSet membership equals { v : proto.enabled(g, cfg, v) } and the
// checker's cached verdict equals the from-scratch predicate.  The
// differential harness (tests/engine_differential_test.cpp) asserts the
// incremental and reference engines produce bit-identical RunResults
// over randomized protocol x topology x daemon x seed grids.
//
// This header also holds run_with_engine(), which runs any engine's step
// policy under the shared driver (run_driver.hpp).
#ifndef SPECSTAB_SIM_INCREMENTAL_ENGINE_HPP
#define SPECSTAB_SIM_INCREMENTAL_ENGINE_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/daemon.hpp"
#include "sim/enabled_set.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/protocol.hpp"
#include "sim/run_driver.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"
#include "sim/vector_engine.hpp"

namespace specstab {

/// The incremental step policy: O(|B(A, r)|) guard evaluations per
/// sparse action instead of O(n), a guard-kernel rescan (the vector
/// engine's rescan_enabled()) for dense ones.
template <ProtocolConcept P, class C>
  requires IncrementalLegitimacy<C, typename P::State>
class IncrementalPolicy {
  using State = typename P::State;

 public:
  IncrementalPolicy(const Graph& g, const P& proto, ConfigStore<State>& cfg,
                    C& checker)
      : g_(g),
        proto_(proto),
        cfg_(cfg),
        live_(cfg.view()),
        checker_(checker),
        radius_(protocol_locality_radius(proto)),
        expander_(g.n()),
        kernel_(make_enabled_kernel(g, proto)) {}

  bool init() {
    enabled_.reset(g_.n());
    rescan();
    return checker_.init(g_, live_);
  }
  [[nodiscard]] std::size_t enabled_count() const { return enabled_.size(); }

  // A perturbation is repaired like an action: re-test the perturbed
  // ball (or rebuild when the corruption is dense) and refresh the
  // checker so its cached counters never go stale.
  bool repair(const std::vector<VertexId>& victims) {
    if (is_dense(victims.size())) {
      rescan();
      return fault_refresh_checker(checker_, g_, live_, victims);
    }
    return retest_ball(enabled_, expander_, g_, proto_, live_, radius_,
                       checker_, victims);
  }

  template <class Select>
  StepOutcome step(Select&& select, bool, DeltaTrace<State>* trace) {
    const std::vector<VertexId>& activated = select(enabled_.view());
    const bool dense = is_dense(activated.size());
    install_action(g_, proto_, cfg_, activated, dense, staged_, trace);
    // Only guards inside the radius-r ball around the activated vertices
    // can have flipped.  When the action touches most of the graph
    // (synchronous and dense distributed daemons), a full rescan through
    // the guard kernel is cheaper than ball expansion.
    if (dense) {
      rescan();
      return {activated.size(), checker_.on_update(g_, live_, activated)};
    }
    return {activated.size(),
            retest_ball(enabled_, expander_, g_, proto_, live_, radius_,
                        checker_, activated)};
  }

  EnabledDelta enabled_delta() { return enabled_.delta(); }

 private:
  [[nodiscard]] bool is_dense(std::size_t touched) const {
    return is_dense_update(static_cast<std::int64_t>(touched), radius_, g_);
  }

  void rescan() {
    rescan_enabled<false>(enabled_, kernel_, g_, proto_, live_);
  }

  const Graph& g_;
  const P& proto_;
  ConfigStore<State>& cfg_;
  const ConfigView<State> live_;
  C& checker_;
  const VertexId radius_;
  EnabledSet enabled_;
  NeighborhoodExpander expander_;
  std::vector<State> staged_;
  decltype(make_enabled_kernel(std::declval<const Graph&>(),
                               std::declval<const P&>())) kernel_;
};

/// Engine dispatcher: runs the step policy selected by opt.engine under
/// the shared driver.  The reference and vector paths evaluate the
/// checker's from-scratch oracle once per configuration, in execution
/// order, so stateful wrappers (closure counters) observe the same
/// legitimacy sequence on every path.
template <ProtocolConcept P, class C>
  requires IncrementalLegitimacy<C, typename P::State>
RunResult<typename P::State> run_with_engine(
    const Graph& g, const P& proto, Daemon& daemon,
    Config<typename P::State> init, const RunOptions& opt, C& checker,
    const StepObserver<typename P::State>& observer = nullptr,
    FaultPlan<typename P::State>* fault_plan = nullptr) {
  using State = typename P::State;
  ConfigStore<State> cfg(std::move(init), opt.layout);
  const auto drive = [&](auto& policy) {
    return drive_run(g, daemon, cfg, policy, opt, observer, fault_plan);
  };
  switch (opt.engine) {
    case EngineKind::kReference: {
      const LegitimacyPredicate<State> legitimate =
          [&checker](const Graph& gg, ConfigView<State> c) {
            return checker.full(gg, c);
          };
      ReferencePolicy<P> policy(g, proto, cfg, legitimate);
      return drive(policy);
    }
    case EngineKind::kVector: {
      VectorPolicy<P, C> policy(g, proto, cfg, checker);
      return drive(policy);
    }
    case EngineKind::kParallel: {
      // Full-set steps need the action to be the whole enabled set by
      // definition, and nothing that reads it as a vertex list.
      ParallelPolicy<P, C> policy(
          g, proto, cfg, checker, opt,
          daemon.activates_all_enabled() && !observer && !opt.record_trace);
      return drive(policy);
    }
    case EngineKind::kIncremental:
      break;
  }
  IncrementalPolicy<P, C> policy(g, proto, cfg, checker);
  return drive(policy);
}

}  // namespace specstab

#endif  // SPECSTAB_SIM_INCREMENTAL_ENGINE_HPP
