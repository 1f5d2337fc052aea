// Shared engine support: the enabled-set container, the dirty-ball
// expander and the incremental-checker concepts.
//
// The non-reference engines maintain the enabled set behind EnabledSet
// (64-bit membership mask words plus a sorted vector).  The incremental
// engine edits it by staged per-vertex flips (note()/commit()) after a
// sparse action and rebuilds it from packed guard-verdict words
// (append_mask(), 64 verdicts per word) after a dense one; the
// parallel engine fills the words shard by shard and decodes the sorted
// vector, also shard by shard, only when it needs it (fill_words(),
// end_fill(), scatter_words()).  The
// IncrementalLegitimacy / HasBallUpdate concepts describe the checker
// objects both engines drive (see core/incremental_legitimacy.hpp for
// the concrete checkers).
#ifndef SPECSTAB_SIM_ENABLED_SET_HPP
#define SPECSTAB_SIM_ENABLED_SET_HPP

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/daemon.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace specstab {

/// Incremental legitimacy checker: a stateful object mirroring one
/// legitimacy predicate.  init() performs the from-scratch evaluation and
/// (re)builds the internal caches; on_update() is called once per
/// subsequent configuration with the sorted list of vertices whose state
/// changed and must return the same verdict a from-scratch evaluation
/// would; full() is the stateless from-scratch oracle used by the
/// reference engine.  All three return the predicate's
/// verdict so a wrapper (e.g. ClosureCounting) can observe the legitimacy
/// sequence in configuration order regardless of the engine.
template <class C, class State>
concept IncrementalLegitimacy =
    requires(C& c, const Graph& g, ConfigView<State> cfg,
             const std::vector<VertexId>& touched) {
      { c.init(g, cfg) } -> std::same_as<bool>;
      { c.on_update(g, cfg, touched) } -> std::same_as<bool>;
      { c.full(g, cfg) } -> std::same_as<bool>;
    };

/// Optional checker extension: a checker whose rescore set is the
/// radius-update_radius() ball around the touched vertices can accept an
/// already-expanded ball (sorted unique closed ball of exactly that
/// radius) instead of re-expanding it.  The engine uses this to share
/// its guard-dirty ball with the checker when the radii coincide,
/// halving per-action expansion work.
template <class C, class State>
concept HasBallUpdate =
    requires(C& c, const Graph& g, ConfigView<State> cfg,
             const std::vector<VertexId>& ball) {
      { std::as_const(c).update_radius() } -> std::convertible_to<VertexId>;
      { c.on_update_ball(g, cfg, ball) } -> std::same_as<bool>;
    };

/// Trivial checker for runs without a legitimacy predicate (mirrors the
/// reference engine's nullptr-predicate behaviour: every configuration is
/// legitimate).
struct AlwaysLegitimate {
  template <class Cfg>
  bool init(const Graph&, const Cfg&) {
    return true;
  }
  template <class Cfg>
  bool on_update(const Graph&, const Cfg&, const std::vector<VertexId>&) {
    return true;
  }
  template <class Cfg>
  bool full(const Graph&, const Cfg&) {
    return true;
  }
};

/// Whether an action touching `touched_count` vertices dirties enough of
/// the graph that a plain ordered rescan beats radius-`radius` ball
/// expansion.  Shared by the engine (guard re-tests) and the score
/// checkers so both fall back in lockstep.  The estimate is
/// degree-aware: each hop multiplies the frontier by the average degree,
/// and expansion bookkeeping (version stamps, the final sort, scattered
/// access) costs roughly twice an ordered scan per vertex — so on dense
/// random graphs the fallback triggers much earlier than on rings.
[[nodiscard]] inline bool is_dense_update(std::int64_t touched_count,
                                          VertexId radius, const Graph& g) {
  const auto n = static_cast<std::int64_t>(g.n());
  if (n == 0) return true;
  const std::int64_t avg_deg =
      std::max<std::int64_t>(1, 2 * static_cast<std::int64_t>(g.m()) / n);
  std::int64_t ball = touched_count;
  for (VertexId hop = 0; hop < radius; ++hop) {
    if (2 * ball >= n) return true;  // also caps growth before overflow
    ball *= 1 + avg_deg;
  }
  return 2 * ball >= n;
}

/// Sorted-unique closed ball B(seeds, radius), with O(1) amortized
/// clearing via version stamps so per-action expansion allocates nothing
/// in steady state.
class NeighborhoodExpander {
 public:
  explicit NeighborhoodExpander(VertexId n)
      : stamp_(static_cast<std::size_t>(n), 0) {}

  /// All vertices within `radius` hops of any seed (including the seeds
  /// themselves), sorted ascending, each vertex once.  The returned
  /// reference is invalidated by the next expand() call.
  const std::vector<VertexId>& expand(const Graph& g,
                                      const std::vector<VertexId>& seeds,
                                      VertexId radius);

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t current_ = 0;
  std::vector<VertexId> out_, frontier_, next_;
};

/// The enabled set as 64-bit membership mask words (bit v % 64 of word
/// v / 64, zero past the last vertex) plus a sorted vector.  Updates are
/// staged per dirty vertex (note(), in ascending vertex order) and
/// applied by commit(): a handful of flips edit the sorted vector in
/// place (binary search + memmove), larger batches take one linear merge
/// pass.
///
/// The sorted vector may lag the words: after a sharded fill
/// (fill_words() + end_fill()) only the words and the count are current
/// until the sharded decode (prepare_scatter() + scatter_words()) runs.
/// contains(), size() and empty() read only the words and the count;
/// vertices(), view() and the staged updates require the vector to be
/// current.
class EnabledSet {
 public:
  void reset(VertexId n);

  /// Installs the full enabled set (sorted), e.g. from the initial scan.
  void assign(const std::vector<VertexId>& sorted_enabled);

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool contains(VertexId v) const {
    const auto i = static_cast<std::size_t>(v);
    return ((words_[i / 64] >> (i % 64)) & 1) != 0;
  }

  /// The sorted vector; must be current (see sorted_current()).
  [[nodiscard]] const std::vector<VertexId>& vertices() const {
    assert(!stale_ && "EnabledSet: sorted vector read before scatter");
    return vertices_;
  }
  /// False between end_fill() and the sharded decode.
  [[nodiscard]] bool sorted_current() const { return !stale_; }
  /// Daemon-facing view: the sorted vector plus the mask words, which
  /// give cursor daemons O(1) contains() (see EnabledView).
  [[nodiscard]] EnabledView view() const { return {vertices(), words_}; }

  /// The change made by the latest update: the staged flips after
  /// commit() or apply_delta(); after a rebuild or a sharded fill, the
  /// difference to the mask words before it, decoded here in one pass
  /// over the words.  The sorted vector must be current.
  [[nodiscard]] EnabledDelta delta();

  void begin_update();
  /// Records the fresh guard verdict of a dirty vertex.  Must be called
  /// in ascending vertex order between begin_update() and commit().
  void note(VertexId v, bool enabled_now);
  /// Applies the staged flips; returns whether the vector changed.
  bool commit();

  /// One-shot delta application for callers that computed the flips
  /// themselves (the parallel engine's merged per-shard deltas): `added`
  /// and `removed` must be sorted ascending, disjoint from each other,
  /// with `removed` a subset of the current set and `added` disjoint
  /// from it.  Equivalent to begin_update() + note() per vertex +
  /// commit(); returns whether the vector changed.
  bool apply_delta(const std::vector<VertexId>& added,
                   const std::vector<VertexId>& removed);

  /// Dense-path rebuild: when an action dirties most of the graph the
  /// flip staging above degenerates (per-vertex compare-and-stage plus a
  /// full merge); rebuilding from scratch is one word clear plus one
  /// append per enabled vertex.  Call append() in ascending vertex order
  /// between begin_rebuild() and end_rebuild().
  void begin_rebuild();
  void append(VertexId v) {
    const auto i = static_cast<std::size_t>(v);
    words_[i / 64] |= std::uint64_t{1} << (i % 64);
    scratch_.push_back(v);
  }
  /// Word-level bulk append for the guard-kernel rescan (rescan_enabled()
  /// in simd_eval.hpp): 64 guard verdicts at once, bit b of `mask`
  /// standing for vertex base + b.  `base` must be a multiple of 64,
  /// calls must proceed in ascending base order between begin_rebuild()
  /// and end_rebuild(), and bits past the last vertex must be zero in the
  /// trailing (partial) word.  The word is stored as is; each set bit costs one
  /// count-trailing-zeros for the sorted vector, so sparse words are
  /// near-free.
  void append_mask(VertexId base, std::uint64_t mask) {
    assert(base % 64 == 0);
    words_[static_cast<std::size_t>(base) / 64] = mask;
    while (mask != 0) {
      const int b = std::countr_zero(mask);
      mask &= mask - 1;
      scratch_.push_back(base + b);
    }
  }
  void end_rebuild();

  // --- Sharded dense rebuild (parallel engine) ---------------------------
  //
  // The fused dense path rebuilds the whole set from per-shard guard
  // verdicts with no sequential pass.  Shard ranges must partition
  // [0, n) with every interior boundary a multiple of 64, so shards
  // touch disjoint mask words:
  //
  //   1. one thread calls begin_fill(), then each shard calls
  //      fill_words(begin, end, verdicts) over its own
  //      range (verdicts indexed by absolute vertex id, padded to a
  //      64-byte multiple with zeros past the last vertex) and keeps the
  //      returned enabled count;
  //   2. one thread calls end_fill(total) — membership and size are
  //      current from here on, the sorted vector is stale;
  //   3. only if the sorted vector is wanted before the next fill: one
  //      thread calls prepare_scatter(counts, offsets) — a prefix sum
  //      over the shard counts plus the sorted-vector resize (within the
  //      reset() reservation, so allocation-free) — and each shard calls
  //      scatter_words(begin, end, offsets[k]) to decode its words into
  //      its slice.
  //
  // Concurrent fill/scatter calls on distinct ranges are data-race-free
  // by construction (disjoint writes, no size changes); the resulting
  // words and sorted vector are identical to an ordered append() sweep
  // of the same verdicts.

  /// Packs verdicts[begin..end) into mask words; returns the number of
  /// enabled vertices in the range.  `begin` must be a multiple of 64
  /// unless the range is empty (the trailing empty shards of a small
  /// graph start at n); `end` must be the next shard's begin or n.
  std::size_t fill_words(VertexId begin, VertexId end,
                         const std::uint8_t* verdicts);

  /// Starts a sharded fill (before any fill_words() call): keeps the
  /// current words for delta().
  void begin_fill() { words_.swap(prev_words_); }

  /// Publishes a complete sharded fill of `count` enabled vertices and
  /// marks the sorted vector stale.
  void end_fill(std::size_t count) {
    count_ = count;
    stale_ = true;
    rebuilt_ = true;
  }

  /// Prefix-sums the per-shard counts into `offsets` (size counts.size()
  /// + 1) and sizes the sorted vector for scatter_words(); the vector is
  /// current once every shard has scattered.
  void prepare_scatter(const std::vector<std::size_t>& counts,
                       std::vector<std::size_t>& offsets);

  /// Decodes the mask words of [begin, end) into the sorted vector
  /// starting at `offset` (the shard's prefix sum from prepare_scatter).
  void scatter_words(VertexId begin, VertexId end, std::size_t offset);

 private:
  std::vector<std::uint64_t> words_;  ///< membership, one bit per vertex
  std::vector<std::uint64_t> prev_words_;  ///< words before a rebuild
  std::vector<VertexId> vertices_;
  std::vector<VertexId> scratch_, added_, removed_;
  std::size_t count_ = 0;
  bool stale_ = false;  ///< vertices_ lags words_
  bool rebuilt_ = false;  ///< the latest update was a rebuild or fill
};

/// Sparse repair after the vertices in `seeds` changed state: re-tests
/// the guards of their radius-`radius` ball, commits the flips, and
/// returns the checker's verdict — handing the expanded ball to a
/// same-radius checker (HasBallUpdate) instead of letting it expand the
/// same ball again.
template <class P, class C>
bool retest_ball(EnabledSet& enabled, NeighborhoodExpander& expander,
                 const Graph& g, const P& proto,
                 ConfigView<typename P::State> live, VertexId radius,
                 C& checker, const std::vector<VertexId>& seeds) {
  enabled.begin_update();
  const auto& dirty = expander.expand(g, seeds, radius);
  for (VertexId v : dirty) enabled.note(v, proto.enabled(g, live, v));
  bool legit;
  if constexpr (HasBallUpdate<C, typename P::State>) {
    legit = checker.update_radius() == radius
                ? checker.on_update_ball(g, live, dirty)
                : checker.on_update(g, live, seeds);
  } else {
    legit = checker.on_update(g, live, seeds);
  }
  enabled.commit();
  return legit;
}

}  // namespace specstab

#endif  // SPECSTAB_SIM_ENABLED_SET_HPP
