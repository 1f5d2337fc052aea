// Sharded parallel execution engine.
//
// The state-model structure the other engines exploit sequentially is
// also what makes one daemon action parallelizable: composite atomicity
// means every activated vertex reads the *pre-action* configuration (the
// apply phase is embarrassingly parallel), and guards are local —
// `protocol_locality_radius()` bounds the footprint of an activation to
// its radius-r ball, so activations whose balls don't overlap commute.
//
// This engine partitions the vertex range into contiguous shards whose
// interior boundaries are multiples of 64 — aligned to the EnabledSet
// mask words — and pins shard k to worker k of a ShardPool for the whole
// run (no per-step task claiming).  Each step runs in barrier-separated
// phases:
//
//   *dense steps* (is_dense_update), the synchronous/dense-daemon hot
//   path, are fully fused:
//
//   1. *apply + install* — shard k computes the successor states of the
//      activated vertices in its range against the pre-action
//      configuration and merges them straight into the ConfigStore's
//      inactive double buffers over its own column segment
//      (dense_fill_range); one barrier, then a sequential O(1) buffer
//      swap (dense_commit) publishes the post-action configuration.
//      When the kernel's verdict bytes are rule codes (SimdEval
//      successor(), simd_eval.hpp) and still describe the live
//      configuration, a successor is the vertex's own state advanced by
//      its code — the guards are not evaluated a second time;
//   2. *fused guard rescan* — shard k evaluates its vertex range through
//      the protocol's SimdEval kernel (simd_eval.hpp; scalar sweep for
//      protocols without one), packs the verdict bytes into the
//      EnabledSet's mask words and bitmap (fill_words — disjoint words
//      by the 64-alignment), and, when the kernel and checker share a
//      ScoreKind, accumulates its partial violation total; the totals
//      merge at the barrier into one checker.accept_total() call, so
//      neither the enabled set nor the legitimacy verdict needs a
//      sequential pass;
//   3. *scatter* — after a sequential prefix sum over the per-shard
//      enabled counts (prepare_scatter), shard k decodes its mask words
//      into its slice of the sorted enabled vector (scatter_words) —
//      the old sequential delta-concatenation/merge pass is gone.
//
//   The initial enabled set comes from the same sharded rescan +
//   scatter, so the first dense step applies from codes too.
//
//   *sparse steps* keep the delta path: successor states computed in
//   parallel and installed sequentially via set(); each shard re-tests
//   the activations whose radius-r balls stay inside its range (per-shard
//   sorted deltas, a shared per-step stamp array with shard-disjoint
//   writes), boundary-crossing activations defer to a sequential fix-up
//   pass, and the deltas concatenate in shard order into one
//   EnabledSet::apply_delta().
//
// Fresh guard verdicts are pure functions of the post-action
// configuration, so the resulting enabled set — and with it daemon
// selection, meters, traces, and every subsequent step — is
// byte-identical to the incremental engine at every thread count *by
// construction*.  The differential suites
// (tests/parallel_differential_test.cpp and the engine/layout harnesses)
// hold the engine to that at 1, 2, 8 and 16 threads, including shard
// counts that split words unevenly and graphs smaller than one word.
#ifndef SPECSTAB_SIM_PARALLEL_ENGINE_HPP
#define SPECSTAB_SIM_PARALLEL_ENGINE_HPP

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <thread>
#include <type_traits>
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

/// Persistent worker pool for the parallel engine: `extra_workers`
/// threads plus the calling thread execute one function per phase, each
/// pinned to a fixed index (worker i always runs fn(i + 1), the caller
/// fn(0)) — no task claiming, no mutex.  Phase hand-off is a
/// sense-reversing barrier over two atomics: the caller publishes the
/// phase and bumps an epoch counter, workers spin briefly on the epoch
/// and park on a futex (std::atomic::wait) when a phase doesn't arrive;
/// completion mirrors it with a remaining-workers countdown the caller
/// spins/parks on.  Per-phase cost on the hot path is therefore a few
/// cache-line transfers, not a mutex+condvar round trip.
///
/// A pool outlives individual runs: campaign workers and `specstab
/// serve` sessions keep one pool per host thread and hand it to the
/// engine through RunOptions::pool, so back-to-back runs pay zero
/// thread-spawn cost.  A pool must not be driven by two runs
/// concurrently (one caller at a time).
class ShardPool {
 public:
  explicit ShardPool(unsigned extra_workers);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Extra workers + the calling thread: the maximum `active` for run().
  [[nodiscard]] std::size_t participants() const {
    return workers_.size() + 1;
  }

  /// Runs fn(0) .. fn(active - 1), each exactly once — fn(0) on the
  /// calling thread, fn(i) pinned to worker i - 1; returns after all
  /// complete.  active must be <= participants().  Not reentrant.  With
  /// active == 1 the call is a plain inline invocation: parked workers
  /// are not woken, so a large shared pool costs nothing to
  /// single-threaded runs.
  void run(std::size_t active, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop(std::size_t self);

  // Phase publication (written by the caller before the epoch bump, read
  // by workers after observing it).
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t active_ = 0;
  bool stop_ = false;
  // Spin budget before parking: 0 when the pool oversubscribes the host
  // (spinning would steal the working thread's quantum), a few thousand
  // pause iterations otherwise.  Set once at construction.
  int spin_limit_ = 0;

  // The barrier atomics live on their own cache lines: epoch_ is
  // caller-written/worker-read, remaining_ the reverse — sharing a line
  // would bounce it twice per phase.
  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  alignas(64) std::atomic<std::size_t> remaining_{0};
  alignas(64) std::atomic<unsigned> parked_{0};
  std::atomic<bool> caller_parked_{false};

  std::vector<std::thread> workers_;
};

namespace parallel_detail {

/// Contiguous vertex shards: shard k covers [bounds[k], bounds[k+1]).
/// Interior boundaries are rounded up to multiples of 64 so each shard
/// owns whole EnabledSet mask words (fill_words/scatter_words write
/// disjointly); small graphs leave trailing shards empty, which every
/// phase tolerates.
inline std::vector<VertexId> shard_bounds(VertexId n, std::size_t shards) {
  std::vector<VertexId> bounds(shards + 1, 0);
  for (std::size_t k = 0; k <= shards; ++k) {
    const auto raw = static_cast<std::int64_t>(n) *
                     static_cast<std::int64_t>(k) /
                     static_cast<std::int64_t>(shards);
    bounds[k] = static_cast<VertexId>(
        std::min<std::int64_t>(static_cast<std::int64_t>(n),
                               (raw + 63) / 64 * 64));
  }
  bounds[shards] = n;
  return bounds;
}

/// Per-shard scratch for the sparse delta path, owned by the shard (not
/// the thread): whichever worker drains shard k writes only into
/// scratch k.
struct ShardScratch {
  explicit ShardScratch(VertexId n) : expander(n) {}

  NeighborhoodExpander expander;
  std::vector<VertexId> seed;            ///< one-activation seed buffer
  std::vector<VertexId> added, removed;  ///< sparse-path deltas (sorted)
  std::vector<VertexId> boundary;        ///< deferred boundary activations
};

}  // namespace parallel_detail

/// Sharded parallel counterpart of run_execution_incremental(): same
/// inputs, byte-identical RunResult at every opt.threads value.
template <ProtocolConcept P, class C>
  requires IncrementalLegitimacy<C, typename P::State>
RunResult<typename P::State> run_execution_parallel(
    const Graph& g, const P& proto, Daemon& daemon,
    Config<typename P::State> init, const RunOptions& opt, C& checker,
    const StepObserver<typename P::State>& observer = nullptr,
    FaultPlan<typename P::State>* fault_plan = nullptr) {
  using State = typename P::State;
  RunResult<State> res;
  ConfigStore<State> cfg(std::move(init), opt.layout);
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

  // External pool (campaign / serve host threads) or a run-local one.
  // The shard count is the requested thread count clamped to the pool —
  // results are thread-count invariant, so the clamp never changes an
  // outcome.
  const std::size_t want = std::max(1u, opt.threads);
  std::optional<ShardPool> local_pool;
  ShardPool* pool = opt.pool;
  if (pool == nullptr) {
    local_pool.emplace(static_cast<unsigned>(want - 1));
    pool = &*local_pool;
  }
  const std::size_t shards = std::min(want, pool->participants());
  const auto bounds = parallel_detail::shard_bounds(g.n(), shards);

  const auto run_shards = [&](const std::function<void(std::size_t)>& fn) {
    pool->run(shards, fn);
  };

  // Whether the guard kernel can hand its fused violation total straight
  // to this run's checker on dense steps: kernel and checker must name
  // the same (non-void) score definition.  See simd_eval.hpp.
  constexpr bool kFusedScore = [] {
    if constexpr (HasScoredSimdEval<P>) {
      using KernelKind = typename SimdEval<P>::ScoreKind;
      return !std::is_void_v<KernelKind> &&
             std::is_same_v<KernelKind, typename ScoreKindOf<C>::type> &&
             requires(C& c) {
               { c.accept_total(std::int64_t{}) } -> std::same_as<bool>;
             };
    } else {
      return false;
    }
  }();

  // Whether the kernel's verdict bytes are rule codes that the dense
  // install can apply from (see simd_eval.hpp).
  constexpr bool kRuleCodes = HasRuleCodeSimdEval<P>;

  // Shared guard-kernel state (context + padded verdict bytes): shards
  // write disjoint verdict ranges, so one buffer serves all of them.
  auto kernel = make_enabled_kernel(g, proto);
  // Flush the graph's staged edges before any worker reads adjacency.
  (void)g.csr();
  // True while kernel.verdicts holds the guard verdicts of the live
  // configuration: after the initial scan and after every dense rescan,
  // but not after a sparse re-test or a fault epoch, which re-test balls
  // through proto.enabled() only.
  bool verdicts_live = false;

  // Sparse-path scratch, allocated on the first sparse step or fault
  // epoch (dense-only runs never pay its O(n) per shard):
  //   - per-shard expanders and delta buffers;
  //   - per-step touched stamps that deduplicate ball overlaps — workers
  //     stamp only vertices inside their own shard range (interior
  //     balls), the sequential fix-up pass stamps anywhere;
  //   - the fix-up expander, shared with the fault repair.
  std::vector<parallel_detail::ShardScratch> scratch;
  std::vector<std::uint32_t> touched;
  std::uint32_t step_gen = 0;
  std::optional<NeighborhoodExpander> fixup_expander;
  const auto ensure_sparse_scratch = [&] {
    if (fixup_expander) return;
    scratch.reserve(shards);
    for (std::size_t k = 0; k < shards; ++k) scratch.emplace_back(g.n());
    touched.assign(static_cast<std::size_t>(g.n()), 0);
    fixup_expander.emplace(g.n());
  };

  ActionBuffer action;
  const std::vector<VertexId>& activated = action.active;
  std::vector<VertexId> round_base;
  std::vector<State> staged;
  std::vector<VertexId> merged_added, merged_removed;
  std::vector<VertexId> fix_added, fix_removed, boundary_all;
  std::vector<std::size_t> shard_counts(shards, 0), shard_offsets;
  std::vector<std::int64_t> shard_scores(shards, 0);
  std::size_t sparse_per = 0;

  // The phase bodies are hoisted std::functions so the hot loop never
  // re-allocates closures; per-step state flows through the captured
  // locals above.

  // Dense phase 1 — fused apply + install: shard k stages the successor
  // states of its activated slice and merges its column segment of the
  // inactive double buffers.  While the verdict buffer is live, the
  // successors come from the rule codes (own state + code, no guard
  // re-evaluation); otherwise from proto.apply().  No cross-shard reads:
  // the live buffers are immutable until dense_commit().
  const std::function<void(std::size_t)> dense_install_phase =
      [&](std::size_t k) {
        const auto a_lo = static_cast<std::size_t>(
            std::lower_bound(activated.begin(), activated.end(), bounds[k]) -
            activated.begin());
        const auto a_hi = static_cast<std::size_t>(
            std::lower_bound(activated.begin(), activated.end(),
                             bounds[k + 1]) -
            activated.begin());
        std::size_t j = a_lo;
        if constexpr (kRuleCodes) {
          if (verdicts_live) {
            const std::uint8_t* code = kernel.verdicts.data();
            for (; j < a_hi; ++j) {
              const auto i = static_cast<std::size_t>(activated[j]);
              staged[j] = SimdEval<P>::successor(proto, live.get(i), code[i]);
            }
          }
        }
        for (; j < a_hi; ++j) staged[j] = proto.apply(g, live, activated[j]);
        cfg.dense_fill_range(activated, staged.data(), a_lo, a_hi,
                             static_cast<std::size_t>(bounds[k]),
                             static_cast<std::size_t>(bounds[k + 1]));
      };

  // Dense phase 2 — fused guard rescan over the shard's vertex range:
  // SimdEval kernel (or scalar sweep) into the shared verdict buffer,
  // packed into the shard's own mask words, partial score total kept.
  const std::function<void(std::size_t)> dense_rescan_phase =
      [&](std::size_t k) {
        const VertexId lo = bounds[k];
        const VertexId hi = bounds[k + 1];
        shard_scores[k] =
            fill_verdicts<kFusedScore>(kernel, g, proto, live, lo, hi);
        shard_counts[k] = enabled.fill_words(lo, hi, kernel.verdicts.data());
      };

  // Dense phase 3 — scatter the shard's words into its slice of the
  // sorted enabled vector.
  const std::function<void(std::size_t)> dense_scatter_phase =
      [&](std::size_t k) {
        enabled.scatter_words(bounds[k], bounds[k + 1], shard_offsets[k]);
      };

  // Sparse apply phase: successor states chunked evenly (composite
  // atomicity — every activation reads the pre-action configuration).
  const std::function<void(std::size_t)> sparse_apply_phase =
      [&](std::size_t k) {
        const std::size_t lo = std::min(activated.size(), k * sparse_per);
        const std::size_t hi = std::min(activated.size(), lo + sparse_per);
        for (std::size_t j = lo; j < hi; ++j) {
          staged[j] = proto.apply(g, live, activated[j]);
        }
      };

  // Sparse re-test phase: shard k re-tests the activations in its range
  // whose balls stay inside the range; the rest are deferred.
  const std::function<void(std::size_t)> sparse_retest_phase =
      [&](std::size_t k) {
        auto& sc = scratch[k];
        sc.added.clear();
        sc.removed.clear();
        sc.boundary.clear();
        const EnabledView pre = enabled.view();
        const auto first = std::lower_bound(activated.begin(),
                                            activated.end(), bounds[k]);
        const auto last = std::lower_bound(activated.begin(),
                                           activated.end(), bounds[k + 1]);
        for (auto it = first; it != last; ++it) {
          const VertexId v = *it;
          sc.seed.assign(1, v);
          const auto& ball = sc.expander.expand(g, sc.seed, radius);
          if (ball.front() < bounds[k] || ball.back() >= bounds[k + 1]) {
            sc.boundary.push_back(v);
            continue;
          }
          for (VertexId u : ball) {
            auto& stamp = touched[static_cast<std::size_t>(u)];
            if (stamp == step_gen) continue;
            stamp = step_gen;
            const bool now = proto.enabled(g, live, u);
            if (now == pre.contains(u)) continue;
            (now ? sc.added : sc.removed).push_back(u);
          }
        }
        std::sort(sc.added.begin(), sc.added.end());
        std::sort(sc.removed.begin(), sc.removed.end());
      };

  // The sharded rescan + scatter of the dense path, also the initial scan.
  const auto dense_rescan = [&] {
    run_shards(dense_rescan_phase);
    enabled.prepare_scatter(shard_counts, shard_offsets);
    run_shards(dense_scatter_phase);
    verdicts_live = true;
  };
  dense_rescan();

  StepIndex since_convergence = 0;
  while (res.steps < opt.max_steps) {
    // Fault injection: corruption and repair run sequentially (epochs are
    // rare; shard parallelism buys nothing on a k-vertex ball) and mirror
    // the incremental engine's repair exactly, so perturbed runs stay
    // byte-identical at every thread count.
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
      verdicts_live = false;
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
        ensure_sparse_scratch();
        enabled.begin_update();
        const auto& dirty = fixup_expander->expand(g, pert.victims, radius);
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

    daemon.select_into(g, enabled.view(), res.steps, action);
    assert(std::is_sorted(activated.begin(), activated.end()));
    if (observer) observer(res.steps, live, activated);

    const bool dense = is_dense_update(
        static_cast<std::int64_t>(activated.size()), radius, g);
    staged.resize(activated.size());
    if (dense) {
      // Fused apply + install: one parallel phase writes the inactive
      // double buffers, one O(1) swap publishes them.  Trace recording
      // reads the still-live pre-action states against the staged
      // successors before the swap.
      cfg.dense_begin();
      run_shards(dense_install_phase);
      if (opt.record_trace) {
        for (std::size_t j = 0; j < activated.size(); ++j) {
          const auto i = static_cast<std::size_t>(activated[j]);
          res.trace.note_change(activated[j], live.get(i), staged[j]);
        }
        res.trace.seal_action(activated);
      }
      cfg.dense_commit();
    } else {
      sparse_per =
          (activated.size() + shards - 1) / std::max<std::size_t>(1, shards);
      run_shards(sparse_apply_phase);
      if (opt.record_trace) {
        for (std::size_t j = 0; j < activated.size(); ++j) {
          const auto i = static_cast<std::size_t>(activated[j]);
          res.trace.note_change(activated[j], live.get(i), staged[j]);
        }
        res.trace.seal_action(activated);
      }
      for (std::size_t j = 0; j < activated.size(); ++j) {
        cfg.set(static_cast<std::size_t>(activated[j]), staged[j]);
      }
    }

    res.moves += static_cast<std::int64_t>(activated.size());
    ++res.steps;
    if (res.first_legitimate >= 0) ++since_convergence;

    const bool opening_round = !rc.round_open();
    if (opening_round) round_base = enabled.vertices();

    // --- Guard re-test phase.
    bool checker_legit;
    if (dense) {
      // Fused sharded rescan (phases 2-3 above); identical set contents
      // to the incremental engine's ordered full rescan.
      dense_rescan();
      if constexpr (kFusedScore) {
        std::int64_t total = 0;
        for (std::size_t k = 0; k < shards; ++k) total += shard_scores[k];
        checker_legit = checker.accept_total(total);
      } else {
        checker_legit = checker.on_update(g, live, activated);
      }
    } else {
      ensure_sparse_scratch();
      verdicts_live = false;
      if (++step_gen == 0) {
        std::fill(touched.begin(), touched.end(), 0);
        step_gen = 1;
      }
      run_shards(sparse_retest_phase);

      // Sequential fix-up: boundary-crossing activations, expanded
      // together; stamped vertices were already re-tested by a shard.
      boundary_all.clear();
      fix_added.clear();
      fix_removed.clear();
      for (std::size_t k = 0; k < shards; ++k) {
        boundary_all.insert(boundary_all.end(), scratch[k].boundary.begin(),
                            scratch[k].boundary.end());
      }
      if (!boundary_all.empty()) {
        const EnabledView pre = enabled.view();
        const auto& dirty = fixup_expander->expand(g, boundary_all, radius);
        for (VertexId u : dirty) {
          auto& stamp = touched[static_cast<std::size_t>(u)];
          if (stamp == step_gen) continue;
          stamp = step_gen;
          const bool now = proto.enabled(g, live, u);
          if (now == pre.contains(u)) continue;
          (now ? fix_added : fix_removed).push_back(u);
        }
      }

      // Merge: shard deltas concatenate sorted (shard ranges ascend);
      // fix-up deltas merge in (disjoint by the stamp dedup).
      merged_added.clear();
      merged_removed.clear();
      for (std::size_t k = 0; k < shards; ++k) {
        merged_added.insert(merged_added.end(), scratch[k].added.begin(),
                            scratch[k].added.end());
        merged_removed.insert(merged_removed.end(),
                              scratch[k].removed.begin(),
                              scratch[k].removed.end());
      }
      if (!fix_added.empty()) {
        const auto mid = merged_added.insert(merged_added.end(),
                                             fix_added.begin(),
                                             fix_added.end());
        std::inplace_merge(merged_added.begin(), mid, merged_added.end());
      }
      if (!fix_removed.empty()) {
        const auto mid = merged_removed.insert(merged_removed.end(),
                                               fix_removed.begin(),
                                               fix_removed.end());
        std::inplace_merge(merged_removed.begin(), mid,
                           merged_removed.end());
      }
      enabled.apply_delta(merged_added, merged_removed);
      // The checker runs sequentially on the post-action configuration —
      // same call, same verdict as the incremental engine's.
      checker_legit = checker.on_update(g, live, activated);
    }

    rc.on_action(opening_round ? round_base : enabled.vertices(), activated,
                 enabled.vertices());
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
RunResult<typename P::State> run_execution_parallel(
    const Graph& g, const P& proto, Daemon& daemon,
    Config<typename P::State> init, const RunOptions& opt) {
  AlwaysLegitimate checker;
  return run_execution_parallel(g, proto, daemon, std::move(init), opt,
                                checker);
}

}  // namespace specstab

#endif  // SPECSTAB_SIM_PARALLEL_ENGINE_HPP
