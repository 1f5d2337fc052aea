// The run driver: the one loop every execution engine runs under.
//
// A run in the Dijkstra state model is the same bookkeeping whatever
// maintains the enabled set: meter the three classical costs (steps =
// daemon actions, moves = vertex activations, rounds), track convergence
// into the legitimacy predicate — the closed set whose first entry
// defines the stabilization time (paper, Definition 3 and Section 2) —,
// fire the fault plan's epochs, and stop at the step cap, a terminal
// configuration, or the post-convergence budget.  drive_run() (the
// RunDriver) is the only code that does any of it:
//
//   - the RunResult, its steps / moves / rounds and the legitimacy
//     markers (first_legitimate, last_illegitimate, the convergence
//     moves and rounds), finalized once at the end;
//   - trace.start() and the perturbation records;
//   - the fault-epoch preamble: due(), fire(), installing the victims;
//   - the stop rule for steps_after_convergence, which under a fault
//     plan waits for the last epoch's recovery;
//   - round accounting (RoundCounter).
//
// An engine is a *step policy*, a class that owns the enabled set and
// the legitimacy checker and supplies:
//
//   bool init();                      gamma_0's verdict, after building
//                                     the enabled set of gamma_0;
//   std::size_t enabled_count() const;
//                                     0 when no vertex is enabled;
//   bool repair(victims);             the enabled set and checker
//                                     repaired after the driver installed
//                                     a perturbation; returns its verdict;
//   StepOutcome step(select, round_open, trace);
//                                     one action: select(view) runs the
//                                     daemon (and the observer) and
//                                     returns the sorted activation list;
//                                     the policy applies it, records it
//                                     in `trace` when non-null
//                                     (record_action), and re-tests;
//   EnabledDelta enabled_delta();     the action's enabled-set change —
//                                     asked only when the round counter
//                                     cannot account the action by count.
//
// Policies are plain classes bound at compile time: no virtual dispatch,
// no per-step std::function beyond what an engine makes itself.
#ifndef SPECSTAB_SIM_RUN_DRIVER_HPP
#define SPECSTAB_SIM_RUN_DRIVER_HPP

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/daemon.hpp"
#include "sim/fault_plan.hpp"
#include "sim/protocol.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace specstab {

class ShardPool;  // parallel_engine.hpp

/// Which execution engine drives a run.  The *incremental* engine
/// (incremental_engine.hpp) maintains the enabled set by dirty-set
/// propagation on sparse actions and by one guard-kernel rescan (SimdEval
/// kernels where a protocol opts in, scalar rescan otherwise) on dense
/// ones, and supports incremental legitimacy checkers; the *parallel*
/// engine (parallel_engine.hpp) shards the vertex range over worker
/// threads — activations whose locality balls stay inside one shard are
/// processed concurrently, boundary-crossers in a sequential fix-up pass,
/// deltas merged in shard order; the *reference* engine (engine.hpp)
/// rescans all n vertices after every action with deliberately naive
/// code and serves as the differential-testing oracle.  All three are
/// step policies of drive_run() and produce bit-identical RunResults for
/// the same inputs.  *vector* names the incremental engine: a kept alias,
/// so session strings, cache keys and `--engine vector` stay valid.
enum class EngineKind {
  kIncremental,
  kReference,
  kVector,
  kParallel,
};

/// "incremental" | "reference" | "vector" | "parallel".
[[nodiscard]] std::string_view engine_name(EngineKind kind);
/// Inverse of engine_name; throws std::invalid_argument on unknown names.
[[nodiscard]] EngineKind engine_by_name(const std::string& name);

struct RunOptions {
  /// Hard cap on the number of actions.
  StepIndex max_steps = 100000;

  /// Engine selection, honored by the run_with_engine() dispatcher in
  /// incremental_engine.hpp (run_execution always executes the
  /// reference algorithm regardless of this field).
  EngineKind engine = EngineKind::kIncremental;

  /// Backing layout of the live configuration (see config_store.hpp).
  /// kAuto picks SoA wherever the state type declares a split — results
  /// are byte-identical across layouts; only memory traffic differs.
  ConfigLayout layout = ConfigLayout::kAuto;

  /// Worker threads for the parallel engine (ignored by the others).
  /// Results are byte-identical at every thread count by construction;
  /// only wall clock differs.  1 runs every phase inline.
  unsigned threads = 1;

  /// Optional externally owned worker pool for the parallel engine
  /// (ignored by the others).  When set, the engine reuses it instead of
  /// spawning threads per run — long-lived hosts (campaign workers,
  /// `specstab serve` sessions) keep one pool per host thread so
  /// back-to-back runs pay zero spawn cost.  The effective shard count
  /// is min(threads, pool->participants()); since results are
  /// thread-count invariant, the clamp never changes an outcome.  This
  /// is an execution resource, not part of a run's identity — session
  /// canonicalization ignores it.
  ShardPool* pool = nullptr;

  /// If set, stop this many actions after the first time the
  /// configuration satisfies the legitimacy predicate (useful to bound
  /// post-convergence work while still exercising closure).
  std::optional<StepIndex> steps_after_convergence;

  /// Record the execution trace (gamma_0 .. gamma_steps) in
  /// RunResult::trace as gamma_0 plus per-action deltas (activated set +
  /// changed-vertex before/after states); configurations are
  /// reconstructed on demand.  Meant for tests, spec checkers and the
  /// session API.
  bool record_trace = false;
};

/// Because legitimacy predicates for the protocols here are closed under
/// the protocol (Gamma_1 for unison/SSME, exact BFS distances for min+1,
/// the single-token configurations for Dijkstra's ring, stable maximal
/// matchings), convergence time equals `last_illegitimate + 1`; the
/// result reports both that and the first legitimate index so tests can
/// verify closure empirically (they must coincide at the end of a long
/// run).
template <class State>
struct RunResult {
  Config<State> final_config;

  StepIndex steps = 0;        ///< daemon actions executed
  std::int64_t moves = 0;     ///< total vertex activations
  StepIndex rounds = 0;       ///< completed asynchronous rounds

  bool terminated = false;    ///< reached a terminal configuration
  bool hit_step_cap = false;  ///< stopped by max_steps

  /// Index of the first configuration satisfying the legitimacy
  /// predicate; -1 if never.
  StepIndex first_legitimate = -1;
  /// Index of the last configuration violating it; -1 if none did.
  StepIndex last_illegitimate = -1;
  /// Moves executed strictly before configuration `last_illegitimate + 1`.
  std::int64_t moves_to_convergence = 0;
  /// Completed rounds at configuration `last_illegitimate + 1`.
  StepIndex rounds_to_convergence = 0;

  /// gamma_0 .. gamma_steps when RunOptions::record_trace, stored as
  /// deltas (see DeltaTrace).
  DeltaTrace<State> trace;

  /// Recovery-time record of the run's fault-injection epochs (empty
  /// when the run had no FaultPlan).  See sim/fault_plan.hpp.
  PerturbationStats perturb;

  /// Convergence time in actions: the index of the earliest configuration
  /// from which the run stayed legitimate (valid when converged()).
  [[nodiscard]] StepIndex convergence_steps() const {
    return last_illegitimate + 1;
  }

  /// True iff the run ended inside the legitimacy predicate having seen it
  /// hold continuously since convergence_steps().
  [[nodiscard]] bool converged() const { return first_legitimate >= 0; }
};

/// Per-action observer: called with (step index i, pre-configuration
/// gamma_i, activated set); the action produces gamma_{i+1}.
template <class State>
using StepObserver = std::function<void(
    StepIndex, ConfigView<State>, const std::vector<VertexId>&)>;

/// Legitimacy predicate over a configuration view, layout-agnostic.
template <class State>
using LegitimacyPredicate =
    std::function<bool(const Graph&, ConfigView<State>)>;

/// What a step policy reports for one action.
struct StepOutcome {
  std::size_t moves;  ///< vertex activations
  bool legit;         ///< verdict on the post-action configuration
};

// --- Step-policy toolkit -------------------------------------------------

/// Records one action in the trace: for each activated[j], its state in
/// `before` and after(j), then the activated set.
template <class State, class After>
void record_action(DeltaTrace<State>& trace,
                   const std::vector<VertexId>& activated,
                   ConfigView<State> before, After&& after) {
  for (std::size_t j = 0; j < activated.size(); ++j) {
    const VertexId v = activated[j];
    trace.note_change(v, before.get(static_cast<std::size_t>(v)), after(j));
  }
  trace.seal_action(activated);
}

/// Installs staged[j] at activated[j] for every j, recording the action
/// first when `trace` is non-null.
template <class State>
void install_staged(ConfigStore<State>& cfg,
                    const std::vector<VertexId>& activated,
                    const std::vector<State>& staged,
                    DeltaTrace<State>* trace) {
  if (trace) {
    record_action(*trace, activated, cfg.view(),
                  [&](std::size_t j) { return staged[j]; });
  }
  for (std::size_t j = 0; j < activated.size(); ++j) {
    cfg.set(static_cast<std::size_t>(activated[j]), staged[j]);
  }
}

/// Records a dense action installed by a buffer swap: the before states
/// are the store's swapped-out buffers (prev_view()).
template <class State>
void record_dense_action(DeltaTrace<State>& trace,
                         const std::vector<VertexId>& activated,
                         const ConfigStore<State>& cfg) {
  const ConfigView<State> live = cfg.view();
  record_action(trace, activated, cfg.prev_view(), [&](std::size_t j) {
    return live.get(static_cast<std::size_t>(activated[j]));
  });
}

/// Composite atomicity: computes every activated vertex's successor
/// against the pre-action configuration, then installs them.  A dense
/// action runs through the store's double-buffered column swap — one
/// contiguous write pass against the swapped-out pre-action buffer,
/// instead of a full snapshot copy plus scattered writes; a sparse one
/// stages only the touched states (in `staged`).
template <ProtocolConcept P>
void install_action(const Graph& g, const P& proto,
                    ConfigStore<typename P::State>& cfg,
                    const std::vector<VertexId>& activated, bool dense,
                    std::vector<typename P::State>& staged,
                    DeltaTrace<typename P::State>* trace) {
  using State = typename P::State;
  if (dense) {
    cfg.dense_apply(activated, [&](ConfigView<State> prev, VertexId v) {
      return proto.apply(g, prev, v);
    });
    if (trace) record_dense_action(*trace, activated, cfg);
    return;
  }
  const ConfigView<State> live = cfg.view();
  staged.clear();
  for (VertexId v : activated) staged.push_back(proto.apply(g, live, v));
  install_staged(cfg, activated, staged, trace);
}

// --- The driver ----------------------------------------------------------

/// Runs `policy` over the configuration in `cfg` under `daemon` (see the
/// header comment for the policy contract) and returns the run's result;
/// `cfg` is left empty (the final configuration moves into the result).
template <class State, class Policy>
RunResult<State> drive_run(const Graph& g, Daemon& daemon,
                           ConfigStore<State>& cfg, Policy& policy,
                           const RunOptions& opt,
                           const StepObserver<State>& observer,
                           FaultPlan<State>* fault_plan) {
  RunResult<State> res;
  // One view for the whole run: it reads through the store's member
  // buffers, so in-place set() and dense buffer swaps stay visible.
  const ConfigView<State> live = cfg.view();
  DeltaTrace<State>* const trace = opt.record_trace ? &res.trace : nullptr;
  RoundCounter rc(g.n());

  bool pending_convergence_marker = false;
  bool legit_now = true;
  const auto note_legitimacy = [&](StepIndex cfg_index, bool legit) {
    legit_now = legit;
    if (fault_plan) fault_plan->meter().on_verdict(cfg_index, legit);
    if (legit) {
      if (res.first_legitimate < 0) res.first_legitimate = cfg_index;
      if (pending_convergence_marker) {
        // First legitimate configuration after the latest violation: the
        // costs so far are the costs to (re-)convergence.
        res.moves_to_convergence = res.moves;
        res.rounds_to_convergence = rc.completed_rounds();
        pending_convergence_marker = false;
      }
    } else {
      res.last_illegitimate = cfg_index;
      pending_convergence_marker = true;
    }
  };

  if (trace) trace->start(live);
  note_legitimacy(0, policy.init());

  // Daemon scratch, reused across the whole execution (the daemon hot
  // path allocates nothing in steady state).
  ActionBuffer action;
  const auto select = [&](const EnabledView& enabled)
      -> const std::vector<VertexId>& {
    daemon.select_into(g, enabled, res.steps, action);
    assert(std::is_sorted(action.active.begin(), action.active.end()));
    if (observer) observer(res.steps, live, action.active);
    return action.active;
  };

  StepIndex since_convergence = 0;
  while (res.steps < opt.max_steps) {
    // Fault injection: corrupt the configuration in place (no step, no
    // move — the adversary is not the daemon), then let the policy
    // repair its enabled set and checker.  A plan also fires when the
    // run stalls so silent protocols cannot terminate with epochs
    // pending.
    if (fault_plan && fault_plan->due(res.steps, policy.enabled_count() == 0)) {
      const Perturbation<State>& pert = fault_plan->fire(g, live, res.steps);
      if (trace) {
        for (std::size_t i = 0; i < pert.victims.size(); ++i) {
          const auto v = static_cast<std::size_t>(pert.victims[i]);
          trace->note_change(pert.victims[i], live.get(v), pert.values[i]);
        }
        trace->seal_perturbation(pert.victims);
      }
      for (std::size_t i = 0; i < pert.victims.size(); ++i) {
        cfg.set(static_cast<std::size_t>(pert.victims[i]), pert.values[i]);
      }
      rc.on_perturbation();
      note_legitimacy(res.steps, policy.repair(pert.victims));
      continue;
    }
    if (policy.enabled_count() == 0) {
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

    const std::size_t enabled_before = policy.enabled_count();
    const StepOutcome out = policy.step(select, rc.round_open(), trace);
    res.moves += static_cast<std::int64_t>(out.moves);
    ++res.steps;
    if (res.first_legitimate >= 0) ++since_convergence;
    if (rc.counts_full_action(enabled_before, out.moves)) {
      rc.on_full_action();
    } else {
      rc.on_action(action.active, policy.enabled_delta());
    }
    note_legitimacy(res.steps, out.legit);
  }
  res.hit_step_cap = !res.terminated && res.steps >= opt.max_steps;
  res.rounds = rc.completed_rounds();
  if (fault_plan) res.perturb = fault_plan->finish();

  // If legitimacy was lost after having been seen, the earliest
  // configuration "from which every execution satisfies spec" is after the
  // last violation; reflect that in first_legitimate.
  if (res.first_legitimate >= 0 &&
      res.first_legitimate <= res.last_illegitimate) {
    res.first_legitimate =
        (res.last_illegitimate < res.steps) ? res.last_illegitimate + 1 : -1;
  }

  res.final_config = cfg.take();
  return res;
}

}  // namespace specstab

#endif  // SPECSTAB_SIM_RUN_DRIVER_HPP
