#include "sim/enabled_set.hpp"

#include "sim/simd_eval.hpp"

namespace specstab {

const std::vector<VertexId>& NeighborhoodExpander::expand(
    const Graph& g, const std::vector<VertexId>& seeds, VertexId radius) {
  // Version-stamped visited marks: bumping current_ invalidates all marks
  // at once.  On (unrealistic) wrap-around, fall back to a full clear.
  if (++current_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    current_ = 1;
  }
  out_.clear();
  frontier_.clear();
  for (VertexId v : seeds) {
    if (stamp_[static_cast<std::size_t>(v)] == current_) continue;
    stamp_[static_cast<std::size_t>(v)] = current_;
    out_.push_back(v);
    frontier_.push_back(v);
  }
  for (VertexId hop = 0; hop < radius && !frontier_.empty(); ++hop) {
    next_.clear();
    for (VertexId v : frontier_) {
      for (VertexId u : g.neighbors(v)) {
        if (stamp_[static_cast<std::size_t>(u)] == current_) continue;
        stamp_[static_cast<std::size_t>(u)] = current_;
        out_.push_back(u);
        next_.push_back(u);
      }
    }
    frontier_.swap(next_);
  }
  std::sort(out_.begin(), out_.end());
  return out_;
}

namespace {

/// Appends the vertices of mask words [first, last) to dst in ascending
/// order; returns the advanced write pointer.
VertexId* decode_words(const std::uint64_t* words, std::size_t first,
                       std::size_t last, VertexId* dst) {
  for (std::size_t w = first; w < last; ++w) {
    std::uint64_t mask = words[w];
    const auto base = static_cast<VertexId>(w * 64);
    while (mask != 0) {
      const int b = std::countr_zero(mask);
      mask &= mask - 1;
      *dst++ = base + b;
    }
  }
  return dst;
}

/// Appends base + b for every set bit b of mask, ascending.
void push_bits(std::uint64_t mask, VertexId base, std::vector<VertexId>& out) {
  while (mask != 0) {
    out.push_back(base + std::countr_zero(mask));
    mask &= mask - 1;
  }
}

}  // namespace

void EnabledSet::reset(VertexId n) {
  vertices_.clear();
  scratch_.clear();
  added_.clear();
  removed_.clear();
  count_ = 0;
  stale_ = false;
  rebuilt_ = false;
  // No staged set exceeds n vertices; reserving up front keeps the
  // rebuild, staging and merge paths allocation-free for the whole run.
  // A reservation is only address space until a path writes into it, so
  // runs that never read the sorted vector never pay its memory.
  vertices_.reserve(static_cast<std::size_t>(n));
  scratch_.reserve(static_cast<std::size_t>(n));
  added_.reserve(static_cast<std::size_t>(n));
  removed_.reserve(static_cast<std::size_t>(n));
  words_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
  prev_words_.assign(words_.size(), 0);
}

std::size_t EnabledSet::fill_words(VertexId begin, VertexId end,
                                   const std::uint8_t* verdicts) {
  assert((begin % 64 == 0 || begin == end) && begin <= end);
  std::size_t count = 0;
  for (VertexId base = begin; base < end; base += 64) {
    // The verdict buffer is padded to a 64-byte multiple and zeroed past
    // the last vertex, so the full-word read never over-runs and
    // trailing bits fold to zero.
    const std::uint64_t mask = pack_verdict_word(verdicts + base);
    words_[static_cast<std::size_t>(base) / 64] = mask;
    count += static_cast<std::size_t>(std::popcount(mask));
  }
  return count;
}

void EnabledSet::prepare_scatter(const std::vector<std::size_t>& counts,
                                 std::vector<std::size_t>& offsets) {
  offsets.resize(counts.size() + 1);
  offsets[0] = 0;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    offsets[k + 1] = offsets[k] + counts[k];
  }
  // Within the reset() reservation: no shard rebuild exceeds n vertices.
  vertices_.resize(offsets.back());
  count_ = offsets.back();
  stale_ = false;
}

void EnabledSet::scatter_words(VertexId begin, VertexId end,
                               std::size_t offset) {
  assert((begin % 64 == 0 || begin == end) && begin <= end);
  const auto first = static_cast<std::size_t>(begin) / 64;
  const auto last = (static_cast<std::size_t>(end) + 63) / 64;
  decode_words(words_.data(), first, begin < end ? last : first,
               vertices_.data() + offset);
}

void EnabledSet::assign(const std::vector<VertexId>& sorted_enabled) {
  std::fill(words_.begin(), words_.end(), 0);
  for (VertexId v : sorted_enabled) {
    const auto i = static_cast<std::size_t>(v);
    words_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  // Copy into the reserved buffer — moving the argument in would replace
  // it with a smaller allocation and re-introduce mid-run growth.
  vertices_.assign(sorted_enabled.begin(), sorted_enabled.end());
  count_ = vertices_.size();
  stale_ = false;
}

void EnabledSet::begin_update() {
  // The staged edits below patch the sorted vector, so it must be
  // current.
  assert(!stale_ && "EnabledSet: staged update before scatter");
  added_.clear();
  removed_.clear();
  rebuilt_ = false;
}

void EnabledSet::begin_rebuild() {
  words_.swap(prev_words_);
  std::fill(words_.begin(), words_.end(), 0);
  scratch_.clear();
}

void EnabledSet::end_rebuild() {
  vertices_.swap(scratch_);
  count_ = vertices_.size();
  stale_ = false;
  rebuilt_ = true;
}

EnabledDelta EnabledSet::delta() {
  if (rebuilt_) {
    added_.clear();
    removed_.clear();
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const std::uint64_t now = words_[w];
      const std::uint64_t was = prev_words_[w];
      if (now == was) continue;
      const auto base = static_cast<VertexId>(w * 64);
      push_bits(now & ~was, base, added_);
      push_bits(was & ~now, base, removed_);
    }
    rebuilt_ = false;
  }
  return {added_, removed_, vertices()};
}

void EnabledSet::note(VertexId v, bool enabled_now) {
  const auto i = static_cast<std::size_t>(v);
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if (((words_[i / 64] & bit) != 0) == enabled_now) return;
  words_[i / 64] ^= bit;
  (enabled_now ? added_ : removed_).push_back(v);
}

bool EnabledSet::commit() {
  if (added_.empty() && removed_.empty()) return false;
  count_ = count_ + added_.size() - removed_.size();
  if (added_.size() + removed_.size() <= 8) {
    // The common case under central daemons: a couple of flips per
    // action.  Binary search + memmove beats a full merge pass.
    //
    // The asserts hold the staging contract: removed_ must be a subset
    // of vertices_ and added_ disjoint from it (note() keeps both in
    // lockstep with the mask words).  A breach — e.g. a caller desyncing
    // the words from the vector — would otherwise erase the wrong
    // vertex or end(), which is UB, not a detectable failure.
    for (VertexId v : removed_) {
      const auto it =
          std::lower_bound(vertices_.begin(), vertices_.end(), v);
      assert(it != vertices_.end() && *it == v &&
             "EnabledSet::commit: removed vertex not in the set");
      vertices_.erase(it);
    }
    for (VertexId v : added_) {
      const auto it =
          std::lower_bound(vertices_.begin(), vertices_.end(), v);
      assert((it == vertices_.end() || *it != v) &&
             "EnabledSet::commit: added vertex already in the set");
      vertices_.insert(it, v);
    }
    return true;
  }
  // One linear merge: vertices_ minus removed_ union added_, all three
  // sorted (note() runs in ascending vertex order; added_ is disjoint
  // from vertices_, removed_ is a subset of it).
  scratch_.clear();
  auto add = added_.begin();
  auto rem = removed_.begin();
  for (VertexId v : vertices_) {
    while (add != added_.end() && *add < v) scratch_.push_back(*add++);
    if (rem != removed_.end() && *rem == v) {
      ++rem;
      continue;
    }
    scratch_.push_back(v);
  }
  while (add != added_.end()) scratch_.push_back(*add++);
  vertices_.swap(scratch_);
  return true;
}

bool EnabledSet::apply_delta(const std::vector<VertexId>& added,
                             const std::vector<VertexId>& removed) {
  // The parallel engine's merged shard deltas arrive pre-sorted and
  // pre-deduplicated (each vertex's fresh verdict was computed against
  // the pre-step words exactly once), so staging them through the
  // note() path reuses the small-flip/linear-merge machinery — and the
  // commit() asserts — unchanged.
  begin_update();
  for (const VertexId v : added) {
    const auto i = static_cast<std::size_t>(v);
    words_[i / 64] |= std::uint64_t{1} << (i % 64);
    added_.push_back(v);
  }
  for (const VertexId v : removed) {
    const auto i = static_cast<std::size_t>(v);
    words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    removed_.push_back(v);
  }
  return commit();
}

}  // namespace specstab
