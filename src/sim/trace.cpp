#include "sim/trace.hpp"

#include <algorithm>

namespace specstab {

RoundCounter::RoundCounter(VertexId n)
    : n_(n), pending_(static_cast<std::size_t>(n), 0) {}

void RoundCounter::reset() {
  round_open_ = false;
  std::fill(pending_.begin(), pending_.end(), 0);
  pending_count_ = 0;
  rounds_ = 0;
}

void RoundCounter::on_action(std::size_t enabled_before_size,
                             const std::vector<VertexId>& enabled_before,
                             const std::vector<VertexId>& activated,
                             const EnabledView& enabled_after,
                             const std::vector<VertexId>* turned_off) {
  if (!round_open_ && activated.size() == enabled_before_size) {
    // Synchronous action at a round boundary: activated is a subset of
    // enabled_before, so equal sizes mean every vertex the round would
    // wait on is served by this very action — the round opens and
    // completes immediately, no pending bookkeeping needed.
    ++rounds_;
    return;
  }
  if (!round_open_) {
    // Open a round on the pre-configuration's enabled set.
    std::fill(pending_.begin(), pending_.end(), 0);
    pending_count_ = 0;
    for (VertexId v : enabled_before) {
      pending_[static_cast<std::size_t>(v)] = 1;
      ++pending_count_;
    }
    round_open_ = pending_count_ > 0;
    if (!round_open_) return;
  }
  // Activated vertices are served.
  for (VertexId v : activated) settle(v);
  // Vertices that became disabled are neutralised.  After every action
  // each pending vertex is enabled, so without a fault epoch in between
  // the pending vertices this action disabled are among the ones it
  // turned off.
  if (pending_count_ > 0) {
    if (turned_off != nullptr) {
      for (VertexId v : *turned_off) settle(v);
    } else {
      for (VertexId v = 0; v < n_ && pending_count_ > 0; ++v) {
        if (pending_[static_cast<std::size_t>(v)] != 0 &&
            !enabled_after.contains(v)) {
          settle(v);
        }
      }
    }
  }
  if (pending_count_ == 0) {
    ++rounds_;
    round_open_ = false;
  }
}

}  // namespace specstab
