// Incremental dirty-set execution engine.
//
// The reference engine (engine.hpp) rescans all n vertices via
// enabled_vertices() and re-evaluates the full legitimacy predicate after
// every daemon action — O(n * steps) guard evaluations, which dominates
// campaign sweeps.  Guards in the Dijkstra state model are *local*: the
// guard of v reads only states within protocol_locality_radius() hops of
// v, so an action activating the set A can only change the enabled
// status of vertices in the radius-r ball around A.  This engine exploits
// that invariant on sparse actions (central and sparse distributed
// daemons):
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
// Dense actions (synchronous and dense Bernoulli daemons, where the ball
// covers most of the graph) take one guard-kernel pass over all n
// vertices instead (rescan_enabled(), simd_eval.hpp), packed straight
// into the mask words.  When the protocol's kernel and the run's checker
// share a ScoreKind, that same pass yields the violation total and the
// checker takes it through accept_total() — the paper's probable
// (synchronous) executions cost one column scan per step.  accept_total()
// leaves the checker's per-vertex caches stale; the next sparse update
// rebuilds them, so dense and sparse actions interleave freely.
//
// The invariant both sides maintain: between actions, the EnabledSet
// membership equals { v : proto.enabled(g, cfg, v) } and the checker's
// verdict equals the from-scratch predicate.  The differential harness
// (tests/engine_differential_test.cpp) asserts the incremental and
// reference engines produce bit-identical RunResults over randomized
// protocol x topology x daemon x seed grids.
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
#include "sim/simd_eval.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace specstab {

/// The incremental step policy: O(|B(A, r)|) guard evaluations per
/// sparse action instead of O(n), one guard-kernel rescan
/// (rescan_enabled()) for dense ones.
template <ProtocolConcept P, class C>
  requires IncrementalLegitimacy<C, typename P::State>
class IncrementalPolicy {
  using State = typename P::State;
  // Whether the guard kernel hands its fused violation totals straight
  // to this run's checker (see kFusedScore in simd_eval.hpp).
  static constexpr bool kFused = kFusedScore<P, C>;

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
    return fused_init_verdict<kFused>(checker_, g_, live_, rescan());
  }
  [[nodiscard]] std::size_t enabled_count() const { return enabled_.size(); }

  // A perturbation is repaired like an action: re-test the perturbed
  // ball (or rebuild when the corruption is dense) and refresh the
  // checker so its cached counters never go stale.
  bool repair(const std::vector<VertexId>& victims) {
    if (is_dense(victims.size())) {
      return fused_verdict<kFused>(checker_, rescan(), [&] {
        return fault_refresh_checker(checker_, g_, live_, victims);
      });
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
      const std::int64_t total = rescan();
      return {activated.size(), fused_verdict<kFused>(checker_, total, [&] {
                return checker_.on_update(g_, live_, activated);
              })};
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

  // Returns the fused violation total (0 and unused unless kFused).
  std::int64_t rescan() {
    return rescan_enabled<kFused>(enabled_, kernel_, g_, proto_, live_);
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
/// the shared driver (EngineKind::kVector is an alias of the incremental
/// policy).  Every policy asks the checker for exactly one verdict per
/// configuration, in execution order, so stateful wrappers (closure
/// counters) observe the same legitimacy sequence on every path.
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
    case EngineKind::kParallel: {
      // Full-set steps need the action to be the whole enabled set by
      // definition, and nothing that reads it as a vertex list.
      ParallelPolicy<P, C> policy(
          g, proto, cfg, checker, opt,
          daemon.activates_all_enabled() && !observer && !opt.record_trace);
      return drive(policy);
    }
    case EngineKind::kIncremental:
    case EngineKind::kVector:
      break;
  }
  IncrementalPolicy<P, C> policy(g, proto, cfg, checker);
  return drive(policy);
}

}  // namespace specstab

#endif  // SPECSTAB_SIM_INCREMENTAL_ENGINE_HPP
