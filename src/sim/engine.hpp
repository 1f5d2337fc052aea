// Reference execution engine for the Dijkstra state model.
//
// Runs a deterministic guarded-rule protocol under a daemon from a given
// initial configuration, with composite atomicity: all vertices activated
// in one action read the *pre-action* configuration.  The run loop —
// meters, legitimacy markers, fault epochs, the stop rule, rounds — is
// the shared driver (run_driver.hpp); this engine is its simplest step
// policy: it rescans all n guards and re-evaluates the legitimacy
// predicate from scratch after every action, with deliberately naive
// code, and serves as the differential-testing oracle for the other
// engines.
#ifndef SPECSTAB_SIM_ENGINE_HPP
#define SPECSTAB_SIM_ENGINE_HPP

#include <vector>

#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/daemon.hpp"
#include "sim/fault_plan.hpp"
#include "sim/protocol.hpp"
#include "sim/run_driver.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace specstab {

/// The reference step policy: fresh rescans and fresh vectors per action,
/// legitimacy through the from-scratch predicate (every configuration is
/// legitimate without one).
template <ProtocolConcept P>
class ReferencePolicy {
  using State = typename P::State;

 public:
  ReferencePolicy(const Graph& g, const P& proto, ConfigStore<State>& cfg,
                  const LegitimacyPredicate<State>& legitimate)
      : g_(g),
        proto_(proto),
        cfg_(cfg),
        live_(cfg.view()),
        legitimate_(legitimate) {}

  bool init() { return rescan(); }
  [[nodiscard]] std::size_t enabled_count() const { return enabled_.size(); }
  bool repair(const std::vector<VertexId>&) { return rescan(); }

  template <class Select>
  StepOutcome step(Select&& select, bool, DeltaTrace<State>* trace) {
    const std::vector<VertexId>& activated = select(enabled_);
    // Composite atomicity: compute all successor states against the
    // pre-action configuration, then install them.
    std::vector<State> staged;
    for (VertexId v : activated) staged.push_back(proto_.apply(g_, live_, v));
    install_staged(cfg_, activated, staged, trace);
    before_ = std::move(enabled_);
    return {activated.size(), rescan()};
  }

  EnabledDelta enabled_delta() {
    diff_sorted(before_, enabled_, added_, removed_);
    return {added_, removed_, enabled_};
  }

 private:
  bool rescan() {
    enabled_ = enabled_vertices(g_, proto_, live_);
    return !legitimate_ || legitimate_(g_, live_);
  }

  const Graph& g_;
  const P& proto_;
  ConfigStore<State>& cfg_;
  const ConfigView<State> live_;
  const LegitimacyPredicate<State>& legitimate_;
  std::vector<VertexId> enabled_, before_, added_, removed_;
};

/// Runs the reference engine: the oracle every other engine is held to.
template <ProtocolConcept P>
RunResult<typename P::State> run_execution(
    const Graph& g, const P& proto, Daemon& daemon,
    Config<typename P::State> init, const RunOptions& opt,
    const LegitimacyPredicate<typename P::State>& legitimate,
    const StepObserver<typename P::State>& observer = nullptr,
    FaultPlan<typename P::State>* fault_plan = nullptr) {
  ConfigStore<typename P::State> cfg(std::move(init), opt.layout);
  ReferencePolicy<P> policy(g, proto, cfg, legitimate);
  return drive_run(g, daemon, cfg, policy, opt, observer, fault_plan);
}

/// Convenience overload without a legitimacy predicate (runs to the step
/// cap or a terminal configuration).
template <ProtocolConcept P>
RunResult<typename P::State> run_execution(const Graph& g, const P& proto,
                                           Daemon& daemon,
                                           Config<typename P::State> init,
                                           const RunOptions& opt) {
  return run_execution(g, proto, daemon, std::move(init), opt, nullptr);
}

}  // namespace specstab

#endif  // SPECSTAB_SIM_ENGINE_HPP
