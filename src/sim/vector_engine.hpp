// Vectorized full-rescan execution engine.
//
// The third engine (after the reference oracle in engine.hpp and the
// dirty-set incremental engine in incremental_engine.hpp).  Instead of
// propagating dirty balls it re-evaluates *all* n guards after every
// action — but as contiguous column scans: protocols that specialize
// SimdEval<P> (simd_eval.hpp) supply a branch-light kernel that writes
// one verdict byte per vertex straight off the ConfigStore columns, and
// the engine packs the bytes into 64-bit words and rebuilds the enabled
// set through EnabledSet::append_mask() — 64 verdicts per word, no
// per-vertex compare-and-stage.  Legitimacy goes through the checker's
// from-scratch full() oracle once per configuration, which the
// LocalScoreChecker factories back with bulk column scans of the
// violation scores (core/incremental_legitimacy.hpp) — unless the
// protocol's kernel and the run's checker advertise the same ScoreKind
// tag, in which case the guard pass itself accumulates the violation
// total (SimdEval::enabled_bytes_scored) and hands it to
// checker.accept_total(): one fused scan per action instead of two.
//
// The trade is deliberate: no expansion bookkeeping, no cached scores,
// no staged flips — a rescan whose per-vertex cost is a handful of
// branchless integer ops.  On workloads whose actions touch large
// fractions of the graph (synchronous and dense Bernoulli daemons over
// arithmetic-state protocols) the scan beats the incremental engine's
// bookkeeping; under central daemons the incremental engine's O(ball)
// updates win, which is why the engine is selectable per run
// (RunOptions::engine, --engine vector).
//
// Protocols without a SimdEval specialization run the same loop with a
// scalar proto.enabled() rescan, so every registered protocol executes
// under this engine.  The differential harness holds all three engines
// to byte-identical RunResults (digests, meters, delta traces) over the
// protocol x init x daemon x layout grid.
#ifndef SPECSTAB_SIM_VECTOR_ENGINE_HPP
#define SPECSTAB_SIM_VECTOR_ENGINE_HPP

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/daemon.hpp"
#include "sim/enabled_set.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"
#include "sim/simd_eval.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace specstab {

/// Vectorized counterpart of run_execution(): same inputs, same
/// RunResult, full guard rescan per action as column scans with
/// word-mask enabled-set rebuilds.
template <ProtocolConcept P, class C>
  requires IncrementalLegitimacy<C, typename P::State>
RunResult<typename P::State> run_execution_vector(
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
  const auto n = g.n();

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

  // Whether the guard kernel hands its fused violation totals straight
  // to this run's checker (see kFusedScore in simd_eval.hpp).
  constexpr bool kFused = kFusedScore<P, C>;

  // Guard kernel state (shared with the parallel engine's fused dense
  // path): the protocol's kernel context plus the padded verdict-byte
  // buffer — see make_enabled_kernel() in simd_eval.hpp.  The rescan
  // below runs allocation-free against it.
  auto kernel = make_enabled_kernel(g, proto);

  EnabledSet enabled;
  enabled.reset(n);
  // One rescan routine for the whole run: guard verdicts through the
  // protocol's SimdEval kernel (a scalar sweep otherwise), packed into
  // EnabledSet words 64 at a time.  Returns the fused violation total
  // (0 and unused unless kFused).
  const auto rescan = [&]() -> std::int64_t {
    const std::int64_t total =
        fill_verdicts<kFused>(kernel, g, proto, live, 0, n);
    enabled.begin_rebuild();
    const std::uint8_t* verdicts = kernel.verdicts.data();
    for (VertexId base = 0; base < n; base += 64) {
      enabled.append_mask(base, pack_verdict_word(verdicts + base));
    }
    enabled.end_rebuild();
    return total;
  };
  // Initial scan; with a fused checker its total is gamma_0's verdict.
  const std::int64_t initial_total = rescan();
  if constexpr (kFused) {
    note_legitimacy(0, checker.init_from_total(g, initial_total));
  } else {
    (void)initial_total;
    note_legitimacy(0, checker.init(g, live));
  }

  ActionBuffer action;
  std::vector<VertexId> round_base;
  std::vector<std::pair<VertexId, State>> updates;

  StepIndex since_convergence = 0;
  while (res.steps < opt.max_steps) {
    // Fault injection: install the epoch's corruption, then one full
    // rescan repairs the enabled set and the legitimacy verdict (this
    // engine's natural recovery path — no stale cache to chase).
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
      const std::int64_t perturbed_total = rescan();
      if constexpr (kFused) {
        note_legitimacy(res.steps, checker.accept_total(perturbed_total));
      } else {
        (void)perturbed_total;
        note_legitimacy(res.steps, checker.full(g, live));
      }
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

    const std::size_t enabled_before = enabled.size();
    daemon.select_into(g, enabled.view(), res.steps, action);
    const std::vector<VertexId>& activated = action.active;
    assert(std::is_sorted(activated.begin(), activated.end()));
    if (observer) observer(res.steps, live, activated);

    // Composite atomicity: compute all successor states against the
    // pre-action configuration, then install them.  Same dense/sparse
    // split as the incremental engine: dense actions run through the
    // store's double-buffered column swap, sparse actions stage only the
    // touched pairs.
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
    // partial action opens a round; snapshot it then, so the rescan can
    // swap the sorted vector out from under it.
    const bool by_count =
        rc.counts_full_action(enabled_before, activated.size());
    if (!by_count && !rc.round_open()) round_base = enabled.vertices();

    const std::int64_t fused_total = rescan();
    if (by_count) {
      rc.on_full_action();
    } else {
      rc.on_action(round_base, activated, enabled.vertices());
    }

    if constexpr (kFused) {
      note_legitimacy(res.steps, checker.accept_total(fused_total));
    } else {
      (void)fused_total;
      note_legitimacy(res.steps, checker.full(g, live));
    }
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
RunResult<typename P::State> run_execution_vector(
    const Graph& g, const P& proto, Daemon& daemon,
    Config<typename P::State> init, const RunOptions& opt) {
  AlwaysLegitimate checker;
  return run_execution_vector(g, proto, daemon, std::move(init), opt, checker);
}

}  // namespace specstab

#endif  // SPECSTAB_SIM_VECTOR_ENGINE_HPP
