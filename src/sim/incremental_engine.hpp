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
// differential harness (tests/engine_differential_test.cpp) asserts
// run_execution_incremental() and run_execution() produce bit-identical
// RunResults over randomized protocol x topology x daemon x seed grids.
#ifndef SPECSTAB_SIM_INCREMENTAL_ENGINE_HPP
#define SPECSTAB_SIM_INCREMENTAL_ENGINE_HPP

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/daemon.hpp"
#include "sim/enabled_set.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"
#include "sim/vector_engine.hpp"

namespace specstab {

/// Incremental counterpart of run_execution(): same inputs, same
/// RunResult, O(|B(A, r)|) guard evaluations per action instead of O(n).
template <ProtocolConcept P, class C>
  requires IncrementalLegitimacy<C, typename P::State>
RunResult<typename P::State> run_execution_incremental(
    const Graph& g, const P& proto, Daemon& daemon,
    Config<typename P::State> init, const RunOptions& opt, C& checker,
    const StepObserver<typename P::State>& observer = nullptr,
    FaultPlan<typename P::State>* fault_plan = nullptr) {
  using State = typename P::State;
  RunResult<State> res;
  ConfigStore<State> cfg(std::move(init), opt.layout);
  // One view for the whole run (reads through the store's member
  // buffers, so it tracks in-place writes and dense buffer swaps).
  const ConfigView<State> live = cfg.view();
  RoundCounter rc(g.n());
  const VertexId radius = protocol_locality_radius(proto);

  bool pending_convergence_marker = false;
  bool legit_now = true;
  const auto note_legitimacy = [&](StepIndex cfg_index, bool legit) {
    legit_now = legit;
    if (fault_plan) fault_plan->meter().on_verdict(cfg_index, legit);
    if (legit) {
      if (res.first_legitimate < 0) res.first_legitimate = cfg_index;
      if (pending_convergence_marker) {
        res.moves_to_convergence = res.moves;
        res.rounds_to_convergence = rc.completed_rounds();
        pending_convergence_marker = false;
      }
    } else {
      res.last_illegitimate = cfg_index;
      pending_convergence_marker = true;
    }
  };

  if (opt.record_trace) res.trace.start(live);
  note_legitimacy(0, checker.init(g, live));

  EnabledSet enabled;
  enabled.reset(g.n());
  enabled.assign(enabled_vertices(g, proto, live));
  NeighborhoodExpander expander(g.n());
  ActionBuffer action;
  std::vector<VertexId> round_base;
  std::vector<std::pair<VertexId, State>> updates;

  StepIndex since_convergence = 0;
  while (res.steps < opt.max_steps) {
    // Fault injection: install the epoch's corruption, then repair the
    // dirty-set invariant — re-test guards in the perturbed ball (or
    // rebuild when the corruption is dense) and refresh the checker so
    // its cached counters never go stale.
    if (fault_plan && fault_plan->due(res.steps, enabled.empty())) {
      const Perturbation<State>& pert = fault_plan->fire(g, live, res.steps);
      if (opt.record_trace) {
        for (std::size_t i = 0; i < pert.victims.size(); ++i) {
          const auto v = static_cast<std::size_t>(pert.victims[i]);
          res.trace.note_change(pert.victims[i], live.get(v), pert.values[i]);
        }
        res.trace.seal_perturbation(pert.victims);
      }
      for (std::size_t i = 0; i < pert.victims.size(); ++i) {
        cfg.set(static_cast<std::size_t>(pert.victims[i]), pert.values[i]);
      }
      bool checker_legit;
      if (is_dense_update(static_cast<std::int64_t>(pert.victims.size()),
                          radius, g)) {
        enabled.begin_rebuild();
        for (VertexId v = 0; v < g.n(); ++v) {
          if (proto.enabled(g, live, v)) enabled.append(v);
        }
        enabled.end_rebuild();
        checker_legit = fault_refresh_checker(checker, g, live, pert.victims);
      } else {
        enabled.begin_update();
        const auto& dirty = expander.expand(g, pert.victims, radius);
        for (VertexId v : dirty) enabled.note(v, proto.enabled(g, live, v));
        if constexpr (HasBallUpdate<C, State>) {
          checker_legit = checker.update_radius() == radius
                              ? checker.on_update_ball(g, live, dirty)
                              : checker.on_update(g, live, pert.victims);
        } else {
          checker_legit = checker.on_update(g, live, pert.victims);
        }
        enabled.commit();
      }
      note_legitimacy(res.steps, checker_legit);
      continue;
    }
    if (enabled.empty()) {
      res.terminated = true;
      break;
    }
    // Under fault injection the post-convergence stop must wait for the
    // last epoch's recovery: epochs exhausted and currently legitimate.
    if (opt.steps_after_convergence && res.first_legitimate >= 0 &&
        since_convergence >= *opt.steps_after_convergence &&
        (!fault_plan || (fault_plan->exhausted() && legit_now))) {
      break;
    }

    // The daemon writes into the loop-owned scratch buffer (sorted, per
    // the select_into contract) — the whole action below runs without
    // allocating once the buffers reach their high-water capacity.
    const std::size_t enabled_before = enabled.size();
    daemon.select_into(g, enabled.view(), res.steps, action);
    const std::vector<VertexId>& activated = action.active;
    assert(std::is_sorted(activated.begin(), activated.end()));
    if (observer) observer(res.steps, live, activated);

    // Composite atomicity: compute all successor states against the
    // pre-action configuration, then install them.  Dense actions run
    // through the store's double-buffered column swap — one contiguous
    // write pass evaluating activated vertices against the swapped-out
    // pre-action buffer, instead of a full snapshot copy plus scattered
    // in-place writes; sparse actions stage only the touched pairs.
    const bool dense = is_dense_update(
        static_cast<std::int64_t>(activated.size()), radius, g);
    if (dense) {
      cfg.dense_apply(activated,
                      [&](ConfigView<State> prev, VertexId v) {
                        return proto.apply(g, prev, v);
                      });
      if (opt.record_trace) {
        const ConfigView<State> prev = cfg.prev_view();
        for (VertexId v : activated) {
          const auto i = static_cast<std::size_t>(v);
          res.trace.note_change(v, prev.get(i), live.get(i));
        }
        res.trace.seal_action(activated);
      }
    } else {
      updates.clear();
      updates.reserve(activated.size());
      for (VertexId v : activated) {
        updates.emplace_back(v, proto.apply(g, live, v));
      }
      if (opt.record_trace) {
        for (const auto& [v, s] : updates) {
          res.trace.note_change(v, live.get(static_cast<std::size_t>(v)), s);
        }
        res.trace.seal_action(activated);
      }
      for (const auto& [v, s] : updates) {
        cfg.set(static_cast<std::size_t>(v), s);
      }
    }

    res.moves += static_cast<std::int64_t>(activated.size());
    ++res.steps;
    if (res.first_legitimate >= 0) ++since_convergence;

    // The round counter reads the pre-action enabled set only when a
    // partial action opens a round; snapshot it then, so the sorted
    // vector can be edited in place below.
    const bool by_count =
        rc.counts_full_action(enabled_before, activated.size());
    if (!by_count && !rc.round_open()) round_base = enabled.vertices();

    // Only guards inside the radius-r ball around the activated vertices
    // can have flipped.  When the action touches most of the graph
    // (synchronous and dense distributed daemons), a plain ordered
    // rescan is cheaper than ball expansion.
    bool checker_legit;
    if (dense) {
      enabled.begin_rebuild();
      for (VertexId v = 0; v < g.n(); ++v) {
        if (proto.enabled(g, live, v)) enabled.append(v);
      }
      enabled.end_rebuild();
      checker_legit = checker.on_update(g, live, activated);
    } else {
      enabled.begin_update();
      const auto& dirty = expander.expand(g, activated, radius);
      for (VertexId v : dirty) enabled.note(v, proto.enabled(g, live, v));
      // Share the expanded ball with a same-radius checker instead of
      // letting it expand the same ball again.
      if constexpr (HasBallUpdate<C, State>) {
        checker_legit = checker.update_radius() == radius
                            ? checker.on_update_ball(g, live, dirty)
                            : checker.on_update(g, live, activated);
      } else {
        checker_legit = checker.on_update(g, live, activated);
      }
      enabled.commit();
    }
    if (by_count) {
      rc.on_full_action();
    } else {
      rc.on_action(round_base, activated, enabled.vertices());
    }

    note_legitimacy(res.steps, checker_legit);
  }
  res.hit_step_cap = !res.terminated && res.steps >= opt.max_steps;
  res.rounds = rc.completed_rounds();
  if (fault_plan) res.perturb = fault_plan->finish();

  if (res.first_legitimate >= 0 &&
      res.first_legitimate <= res.last_illegitimate) {
    res.first_legitimate =
        (res.last_illegitimate < res.steps) ? res.last_illegitimate + 1 : -1;
  }

  res.final_config = cfg.take();
  return res;
}

/// Convenience overload without a legitimacy checker.
template <ProtocolConcept P>
RunResult<typename P::State> run_execution_incremental(
    const Graph& g, const P& proto, Daemon& daemon,
    Config<typename P::State> init, const RunOptions& opt) {
  AlwaysLegitimate checker;
  return run_execution_incremental(g, proto, daemon, std::move(init), opt,
                                   checker);
}

/// Engine dispatcher: runs the engine selected by opt.engine.  The
/// reference and vector paths evaluate the checker's from-scratch oracle
/// once per configuration, in execution order, so stateful wrappers
/// (closure counters) observe the same legitimacy sequence on every
/// path.
template <ProtocolConcept P, class C>
  requires IncrementalLegitimacy<C, typename P::State>
RunResult<typename P::State> run_with_engine(
    const Graph& g, const P& proto, Daemon& daemon,
    Config<typename P::State> init, const RunOptions& opt, C& checker,
    const StepObserver<typename P::State>& observer = nullptr,
    FaultPlan<typename P::State>* fault_plan = nullptr) {
  using State = typename P::State;
  if (opt.engine == EngineKind::kReference) {
    return run_execution(
        g, proto, daemon, std::move(init), opt,
        [&checker](const Graph& gg, ConfigView<State> c) {
          return checker.full(gg, c);
        },
        observer, fault_plan);
  }
  if (opt.engine == EngineKind::kVector) {
    return run_execution_vector(g, proto, daemon, std::move(init), opt,
                                checker, observer, fault_plan);
  }
  if (opt.engine == EngineKind::kParallel) {
    return run_execution_parallel(g, proto, daemon, std::move(init), opt,
                                  checker, observer, fault_plan);
  }
  return run_execution_incremental(g, proto, daemon, std::move(init), opt,
                                   checker, observer, fault_plan);
}

}  // namespace specstab

#endif  // SPECSTAB_SIM_INCREMENTAL_ENGINE_HPP
