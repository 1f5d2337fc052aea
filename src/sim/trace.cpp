#include "sim/trace.hpp"

#include <algorithm>
#include <iterator>

namespace specstab {

void diff_sorted(std::span<const VertexId> before,
                 std::span<const VertexId> after,
                 std::vector<VertexId>& added,
                 std::vector<VertexId>& removed) {
  added.clear();
  removed.clear();
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(added));
  std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                      std::back_inserter(removed));
}

// pending_ is sized when the first round opens: runs whose every action
// is full (synchronous daemons) never allocate it.  Between rounds it is
// all zeros, so opening one sets only the flags of its pending vertices.
RoundCounter::RoundCounter(VertexId n) : n_(n) {}

void RoundCounter::reset() {
  round_open_ = false;
  resync_ = false;
  pending_.clear();
  pending_count_ = 0;
  rounds_ = 0;
}

void RoundCounter::on_action(std::span<const VertexId> activated,
                             const EnabledDelta& delta) {
  if (pending_.empty()) pending_.assign(static_cast<std::size_t>(n_), 0);
  if (!round_open_) {
    // Open a round on the pre-action enabled set, (after \ added) plus
    // removed.  This action neutralises the removed vertices and serves
    // the activated ones, so (after \ added) \ activated stays pending.
    auto add = delta.added.begin();
    auto act = activated.begin();
    for (const VertexId v : delta.after) {
      while (add != delta.added.end() && *add < v) ++add;
      while (act != activated.end() && *act < v) ++act;
      if ((add != delta.added.end() && *add == v) ||
          (act != activated.end() && *act == v)) {
        continue;
      }
      pending_[static_cast<std::size_t>(v)] = 1;
      ++pending_count_;
    }
    resync_ = false;
  } else {
    for (const VertexId v : activated) settle(v);
    if (resync_) {
      // A perturbation may have disabled pending vertices outside any
      // action: check every pending vertex against the post-action set.
      auto it = delta.after.begin();
      for (VertexId v = 0; v < n_ && pending_count_ > 0; ++v) {
        if (!pending_[static_cast<std::size_t>(v)]) continue;
        it = std::lower_bound(it, delta.after.end(), v);
        if (it == delta.after.end() || *it != v) settle(v);
      }
      resync_ = false;
    } else {
      for (const VertexId v : delta.removed) settle(v);
    }
  }
  round_open_ = pending_count_ > 0;
  if (!round_open_) ++rounds_;
}

}  // namespace specstab
