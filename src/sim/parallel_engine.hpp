// Sharded parallel step policy.
//
// Composite atomicity makes one daemon action parallelizable — every
// activated vertex reads the *pre-action* configuration — and locality
// bounds an activation's footprint to its radius-r ball
// (protocol_locality_radius()), so activations whose balls don't overlap
// commute.  The policy partitions the vertex range into contiguous
// shards whose interior boundaries are multiples of 64 (aligned to the
// EnabledSet mask words) and pins shard k to worker k of a ShardPool for
// the whole run.  A step runs in barrier-separated phases:
//
//   *dense steps* (is_dense_update): (1) apply + install — shard k writes
//   the successors of its range into the ConfigStore's inactive double
//   buffers (ConfigStore::dense_map_range), then one O(1) swap; while
//   the kernel's verdict bytes are rule codes of the live configuration
//   (SimdEval successor(), simd_eval.hpp) a successor is the vertex's own
//   state advanced by its code, not a second guard evaluation; (2) fused
//   rescan — shard k fills its verdict bytes and mask words (fill_words)
//   and, when kernel and checker share a ScoreKind, its partial
//   violation total for one checker.accept_total(); the sorted enabled
//   vector goes stale; (3) scatter, on demand — when something reads the
//   sorted vector, each shard decodes its words into its slice.
//
//   *full-set steps* are dense steps whose action is the whole enabled
//   set (Daemon::activates_all_enabled(), a fused checker, no observer or
//   trace): no select_into(), no vertex list — phase 1 walks the shard's
//   range once from the codes (or the mask words), phase 2 follows, and
//   the round closes by count.
//
//   *sparse steps* keep the delta path: successors computed in parallel
//   and installed sequentially; each shard re-tests the activations whose
//   balls stay inside its range, boundary-crossers defer to a sequential
//   fix-up pass, and the sorted deltas merge in shard order into one
//   EnabledSet::apply_delta().
//
// Fresh guard verdicts are pure functions of the post-action
// configuration, so the enabled set — and with it every later step — is
// byte-identical to the incremental engine at every thread count *by
// construction*; tests/parallel_differential_test.cpp holds it to that.
#ifndef SPECSTAB_SIM_PARALLEL_ENGINE_HPP
#define SPECSTAB_SIM_PARALLEL_ENGINE_HPP

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/daemon.hpp"
#include "sim/enabled_set.hpp"
#include "sim/fault_plan.hpp"
#include "sim/protocol.hpp"
#include "sim/run_driver.hpp"
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

/// The sharded parallel step policy: byte-identical to the incremental
/// policy at every opt.threads value.  Not copyable: the hoisted phase
/// bodies capture `this`.
template <ProtocolConcept P, class C>
  requires IncrementalLegitimacy<C, typename P::State>
class ParallelPolicy {
  using State = typename P::State;
  // Whether the guard kernel hands its fused violation totals straight
  // to this run's checker (see kFusedScore in simd_eval.hpp).
  static constexpr bool kFused = kFusedScore<P, C>;
  // Whether the kernel's verdict bytes are rule codes that the dense
  // install can apply from (see simd_eval.hpp).
  static constexpr bool kRuleCodes = HasRuleCodeSimdEval<P>;

 public:
  /// `full_set_daemon`: the daemon's action is the whole enabled set by
  /// definition and nothing reads it as a vertex list.
  ParallelPolicy(const Graph& g, const P& proto, ConfigStore<State>& cfg,
                 C& checker, const RunOptions& opt, bool full_set_daemon)
      : g_(g),
        proto_(proto),
        cfg_(cfg),
        live_(cfg.view()),
        checker_(checker),
        radius_(protocol_locality_radius(proto)),
        full_set_daemon_(full_set_daemon),
        kernel_(make_enabled_kernel(g, proto)) {
    // External pool (campaign / serve host threads) or a run-local one.
    // The shard count is the requested thread count clamped to the pool
    // — results are thread-count invariant, so the clamp never changes
    // an outcome.
    const std::size_t want = std::max(1u, opt.threads);
    pool_ = opt.pool;
    if (pool_ == nullptr) {
      local_pool_.emplace(static_cast<unsigned>(want - 1));
      pool_ = &*local_pool_;
    }
    shards_ = std::min(want, pool_->participants());
    bounds_ = parallel_detail::shard_bounds(g.n(), shards_);
    shard_counts_.assign(shards_, 0);
    shard_scores_.assign(shards_, 0);
    // Flush the graph's staged edges before any worker reads adjacency.
    (void)g.csr();
  }
  ParallelPolicy(const ParallelPolicy&) = delete;
  ParallelPolicy& operator=(const ParallelPolicy&) = delete;

  // The initial enabled set comes from the sharded rescan, so the first
  // dense step applies from codes too; with a fused checker it also
  // yields gamma_0's verdict.
  bool init() {
    enabled_.reset(g_.n());
    return fused_init_verdict<kFused>(checker_, g_, live_, dense_rescan());
  }
  [[nodiscard]] std::size_t enabled_count() const { return enabled_.size(); }

  // Fault repair runs sequentially (epochs are rare; shard parallelism
  // buys nothing on a k-vertex ball) and mirrors the incremental
  // policy's exactly; a dense corruption is repaired by the sharded
  // rescan instead.
  bool repair(const std::vector<VertexId>& victims) {
    verdicts_live_ = false;
    if (is_dense(victims.size())) {
      return fused_verdict<kFused>(checker_, dense_rescan(), [&] {
        return fault_refresh_checker(checker_, g_, live_, victims);
      });
    }
    ensure_sparse_scratch();
    sort_enabled();
    return retest_ball(enabled_, *fixup_expander_, g_, proto_, live_,
                       radius_, checker_, victims);
  }

  template <class Select>
  StepOutcome step(Select&& select, [[maybe_unused]] bool round_open,
                   DeltaTrace<State>* trace) {
    // Full-set step: no daemon call, no vertex list — install from the
    // codes (or the mask words), one O(1) buffer swap, the fused rescan;
    // the driver closes the round by count.
    if constexpr (kFused) {
      const std::size_t enabled_before = enabled_.size();
      if (full_set_daemon_ && !round_open && is_dense(enabled_before)) {
        cfg_.dense_begin();
        run_shards(full_install_phase_);
        cfg_.dense_commit();
        return {enabled_before, checker_.accept_total(dense_rescan())};
      }
    }

    sort_enabled();
    const std::vector<VertexId>& activated = select(enabled_.view());
    activated_ = &activated;
    if (is_dense(activated.size())) {
      // Fused apply + install: one parallel phase writes the inactive
      // double buffers, one O(1) swap publishes them.
      cfg_.dense_begin();
      run_shards(dense_install_phase_);
      cfg_.dense_commit();
      if (trace) record_dense_action(*trace, activated, cfg_);
      // Sharded rescan; identical set contents to the incremental
      // policy's ordered full rescan.
      const std::int64_t total = dense_rescan();
      return {activated.size(), fused_verdict<kFused>(checker_, total, [&] {
                return checker_.on_update(g_, live_, activated);
              })};
    }

    staged_.resize(activated.size());
    sparse_per_ = (activated.size() + shards_ - 1) / shards_;
    run_shards(sparse_apply_phase_);
    install_staged(cfg_, activated, staged_, trace);
    sparse_retest();
    // The checker runs sequentially on the post-action configuration —
    // same call, same verdict as the incremental policy's.
    return {activated.size(), checker_.on_update(g_, live_, activated)};
  }

  EnabledDelta enabled_delta() {
    sort_enabled();
    return enabled_.delta();
  }

 private:
  [[nodiscard]] bool is_dense(std::size_t touched) const {
    return is_dense_update(static_cast<std::int64_t>(touched), radius_, g_);
  }

  void run_shards(const std::function<void(std::size_t)>& fn) {
    pool_->run(shards_, fn);
  }

  // Sparse-path scratch, allocated on the first sparse step or fault
  // epoch (dense-only runs never pay its O(n) per shard).
  void ensure_sparse_scratch() {
    if (fixup_expander_) return;
    scratch_.reserve(shards_);
    for (std::size_t k = 0; k < shards_; ++k) scratch_.emplace_back(g_.n());
    touched_.assign(static_cast<std::size_t>(g_.n()), 0);
    fixup_expander_.emplace(g_.n());
  }

  // The sharded dense rescan: fresh verdicts and mask words, the enabled
  // count, and the fused violation total (0 unless kFused).  The sorted
  // vector is left stale until sort_enabled() decodes it.
  std::int64_t dense_rescan() {
    enabled_.begin_fill();
    run_shards(dense_rescan_phase_);
    std::size_t count = 0;
    std::int64_t total = 0;
    for (std::size_t k = 0; k < shards_; ++k) {
      count += shard_counts_[k];
      total += shard_scores_[k];
    }
    enabled_.end_fill(count);
    verdicts_live_ = true;
    return total;
  }

  // Decodes a stale sorted vector through the sharded scatter — the only
  // decode; every reader of the vector runs after it.  While the vector
  // is stale the words are exactly those of the last fill (every other
  // edit requires a current vector), so its shard counts still hold.
  void sort_enabled() {
    if (enabled_.sorted_current()) return;
    enabled_.prepare_scatter(shard_counts_, shard_offsets_);
    run_shards(dense_scatter_phase_);
  }

  // Dense install over shard k's vertex range in one pass: vertex i gets
  // its successor when take(i) holds and carries its state over
  // otherwise, written straight into the inactive double buffers.
  // While the verdict buffer is live a successor is the vertex's own
  // state advanced by its rule code; otherwise proto.apply() runs.  No
  // cross-shard reads: the live buffers are immutable until
  // dense_commit().
  template <class Take>
  void install_range(std::size_t k, Take&& take) {
    const auto lo = static_cast<std::size_t>(bounds_[k]);
    const auto hi = static_cast<std::size_t>(bounds_[k + 1]);
    const ConfigView<State> live = live_;
    const P& proto = proto_;
    if constexpr (kRuleCodes) {
      if (verdicts_live_) {
        const std::uint8_t* code = kernel_.verdicts.data();
        cfg_.dense_map_range(lo, hi, [&](std::size_t i) {
          const State own = live.get(i);
          return take(i) ? SimdEval<P>::successor(proto, own, code[i]) : own;
        });
        return;
      }
    }
    cfg_.dense_map_range(lo, hi, [&](std::size_t i) {
      return take(i) ? proto.apply(g_, live, static_cast<VertexId>(i))
                     : live.get(i);
    });
  }

  // Sparse guard re-test: per-shard interior balls in parallel, then the
  // sequential fix-up pass for boundary-crossing activations, and one
  // merged delta.
  void sparse_retest() {
    ensure_sparse_scratch();
    verdicts_live_ = false;
    if (++step_gen_ == 0) {
      std::fill(touched_.begin(), touched_.end(), 0);
      step_gen_ = 1;
    }
    run_shards(sparse_retest_phase_);

    // Merge: shard deltas concatenate sorted (shard ranges ascend).
    merged_added_.clear();
    merged_removed_.clear();
    boundary_all_.clear();
    for (const auto& sc : scratch_) {
      merged_added_.insert(merged_added_.end(), sc.added.begin(),
                           sc.added.end());
      merged_removed_.insert(merged_removed_.end(), sc.removed.begin(),
                             sc.removed.end());
      boundary_all_.insert(boundary_all_.end(), sc.boundary.begin(),
                           sc.boundary.end());
    }
    // Sequential fix-up: boundary-crossing activations, expanded
    // together; stamped vertices were already re-tested by a shard.  Its
    // flips (disjoint from the shards' by the stamp dedup) merge in.
    const std::size_t shard_added = merged_added_.size();
    const std::size_t shard_removed = merged_removed_.size();
    if (!boundary_all_.empty()) {
      const auto& dirty = fixup_expander_->expand(g_, boundary_all_, radius_);
      for (VertexId u : dirty) {
        auto& stamp = touched_[static_cast<std::size_t>(u)];
        if (stamp == step_gen_) continue;
        stamp = step_gen_;
        const bool now = proto_.enabled(g_, live_, u);
        if (now == enabled_.contains(u)) continue;
        (now ? merged_added_ : merged_removed_).push_back(u);
      }
    }
    std::inplace_merge(merged_added_.begin(),
                       merged_added_.begin() + shard_added,
                       merged_added_.end());
    std::inplace_merge(merged_removed_.begin(),
                       merged_removed_.begin() + shard_removed,
                       merged_removed_.end());
    enabled_.apply_delta(merged_added_, merged_removed_);
  }

  const Graph& g_;
  const P& proto_;
  ConfigStore<State>& cfg_;
  const ConfigView<State> live_;
  C& checker_;
  const VertexId radius_;
  const bool full_set_daemon_;

  std::optional<ShardPool> local_pool_;
  ShardPool* pool_ = nullptr;
  std::size_t shards_ = 1;
  std::vector<VertexId> bounds_;

  EnabledSet enabled_;
  // Shared guard-kernel state (context + padded verdict bytes): shards
  // write disjoint verdict ranges, so one buffer serves all of them.
  decltype(make_enabled_kernel(std::declval<const Graph&>(),
                               std::declval<const P&>())) kernel_;
  // True while kernel_.verdicts holds the guard verdicts of the live
  // configuration: after every dense rescan (the initial scan and dense
  // fault epochs included), but not after a sparse re-test or a sparse
  // fault epoch, which re-test balls through proto.enabled() only.
  bool verdicts_live_ = false;

  // Sparse-path scratch (see ensure_sparse_scratch()): per-shard
  // expanders and delta buffers; per-step touched stamps that
  // deduplicate ball overlaps — workers stamp only vertices inside their
  // own shard range, the fix-up pass stamps anywhere; the fix-up
  // expander, shared with the fault repair.
  std::vector<parallel_detail::ShardScratch> scratch_;
  std::vector<std::uint32_t> touched_;
  std::uint32_t step_gen_ = 0;
  std::optional<NeighborhoodExpander> fixup_expander_;

  // Per-step state the phases read.
  const std::vector<VertexId>* activated_ = nullptr;
  std::vector<State> staged_;
  std::vector<VertexId> merged_added_, merged_removed_, boundary_all_;
  std::vector<std::size_t> shard_counts_, shard_offsets_;
  std::vector<std::int64_t> shard_scores_;
  std::size_t sparse_per_ = 0;

  // The phase bodies are hoisted std::functions so the hot loop never
  // re-allocates closures; per-step state flows through the members
  // above.

  // Full-set install: the action is the whole enabled set — the vertices
  // with a non-zero rule code while the codes are live (0 = disabled),
  // the set bits of the mask words otherwise.
  const std::function<void(std::size_t)> full_install_phase_ =
      [this](std::size_t k) {
        const std::uint8_t* code = kernel_.verdicts.data();
        if (kRuleCodes && verdicts_live_) {
          install_range(k, [code](std::size_t i) { return code[i] != 0; });
        } else {
          install_range(k, [this](std::size_t i) {
            return enabled_.contains(static_cast<VertexId>(i));
          });
        }
      };

  // Partial dense install: an ascending cursor into the shard's slice of
  // the sorted activation list.
  const std::function<void(std::size_t)> dense_install_phase_ =
      [this](std::size_t k) {
        const std::vector<VertexId>& activated = *activated_;
        const VertexId* next_active = std::lower_bound(
            activated.data(), activated.data() + activated.size(),
            bounds_[k]);
        const VertexId* const last = activated.data() + activated.size();
        // Branch-free advance: half-activated ranges would mispredict.
        install_range(k, [&](std::size_t i) {
          const bool hit = next_active != last &&
                           static_cast<std::size_t>(*next_active) == i;
          next_active += hit;
          return hit;
        });
      };

  // Dense rescan over the shard's vertex range: SimdEval kernel (or
  // scalar sweep) into the shared verdict buffer, packed into the
  // shard's own mask words, partial score total kept.
  const std::function<void(std::size_t)> dense_rescan_phase_ =
      [this](std::size_t k) {
        const VertexId lo = bounds_[k];
        const VertexId hi = bounds_[k + 1];
        shard_scores_[k] =
            fill_verdicts<kFused>(kernel_, g_, proto_, live_, lo, hi);
        shard_counts_[k] = enabled_.fill_words(lo, hi, kernel_.verdicts.data());
      };

  // On-demand scatter: the shard's words into its slice of the sorted
  // enabled vector.
  const std::function<void(std::size_t)> dense_scatter_phase_ =
      [this](std::size_t k) {
        enabled_.scatter_words(bounds_[k], bounds_[k + 1], shard_offsets_[k]);
      };

  // Sparse apply phase: successor states chunked evenly (composite
  // atomicity — every activation reads the pre-action configuration).
  const std::function<void(std::size_t)> sparse_apply_phase_ =
      [this](std::size_t k) {
        const std::vector<VertexId>& activated = *activated_;
        const std::size_t lo = std::min(activated.size(), k * sparse_per_);
        const std::size_t hi = std::min(activated.size(), lo + sparse_per_);
        for (std::size_t j = lo; j < hi; ++j) {
          staged_[j] = proto_.apply(g_, live_, activated[j]);
        }
      };

  // Sparse re-test phase: shard k re-tests the activations in its range
  // whose balls stay inside the range; the rest are deferred.  Pre-step
  // membership comes from the mask words (apply_delta runs after the
  // barrier).
  const std::function<void(std::size_t)> sparse_retest_phase_ =
      [this](std::size_t k) {
        auto& sc = scratch_[k];
        sc.added.clear();
        sc.removed.clear();
        sc.boundary.clear();
        const std::vector<VertexId>& activated = *activated_;
        const auto first = std::lower_bound(activated.begin(),
                                            activated.end(), bounds_[k]);
        const auto last = std::lower_bound(activated.begin(),
                                           activated.end(), bounds_[k + 1]);
        for (auto it = first; it != last; ++it) {
          const VertexId v = *it;
          sc.seed.assign(1, v);
          const auto& ball = sc.expander.expand(g_, sc.seed, radius_);
          if (ball.front() < bounds_[k] || ball.back() >= bounds_[k + 1]) {
            sc.boundary.push_back(v);
            continue;
          }
          for (VertexId u : ball) {
            auto& stamp = touched_[static_cast<std::size_t>(u)];
            if (stamp == step_gen_) continue;
            stamp = step_gen_;
            const bool now = proto_.enabled(g_, live_, u);
            if (now == enabled_.contains(u)) continue;
            (now ? sc.added : sc.removed).push_back(u);
          }
        }
        std::sort(sc.added.begin(), sc.added.end());
        std::sort(sc.removed.begin(), sc.removed.end());
      };
};

}  // namespace specstab

#endif  // SPECSTAB_SIM_PARALLEL_ENGINE_HPP
