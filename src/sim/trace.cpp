#include "sim/trace.hpp"

#include <algorithm>

namespace specstab {

// pending_ is sized when the first round opens: runs whose every action
// is full (synchronous daemons) never allocate it.
RoundCounter::RoundCounter(VertexId n) : n_(n) {}

void RoundCounter::reset() {
  round_open_ = false;
  pending_count_ = 0;
  rounds_ = 0;
}

void RoundCounter::on_action(const std::vector<VertexId>& enabled_before,
                             const std::vector<VertexId>& activated,
                             const std::vector<VertexId>& enabled_after) {
  if (counts_full_action(enabled_before.size(), activated.size())) {
    // Synchronous action at a round boundary: activated is a subset of
    // enabled_before, so equal sizes mean every vertex the round would
    // wait on is served by this very action — the round opens and
    // completes immediately, no pending bookkeeping needed.
    on_full_action();
    return;
  }
  if (!round_open_) {
    // Open a round on the pre-configuration's enabled set.
    pending_.assign(static_cast<std::size_t>(n_), 0);
    pending_count_ = 0;
    for (VertexId v : enabled_before) {
      pending_[static_cast<std::size_t>(v)] = 1;
      ++pending_count_;
    }
    round_open_ = pending_count_ > 0;
    if (!round_open_) return;
  }
  // Activated vertices are served.
  for (VertexId v : activated) {
    if (pending_[static_cast<std::size_t>(v)]) {
      pending_[static_cast<std::size_t>(v)] = 0;
      --pending_count_;
    }
  }
  // Vertices that became disabled are neutralised.
  if (pending_count_ > 0) {
    auto it = enabled_after.begin();
    for (VertexId v = 0; v < n_ && pending_count_ > 0; ++v) {
      if (!pending_[static_cast<std::size_t>(v)]) continue;
      it = std::lower_bound(it, enabled_after.end(), v);
      if (it == enabled_after.end() || *it != v) {
        pending_[static_cast<std::size_t>(v)] = 0;
        --pending_count_;
      }
    }
  }
  if (pending_count_ == 0) {
    ++rounds_;
    round_open_ = false;
  }
}

}  // namespace specstab
