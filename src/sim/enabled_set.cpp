#include "sim/enabled_set.hpp"

#include <bit>
#include <cassert>

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

void EnabledSet::reset(VertexId n) {
  words_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
  count_ = 0;
  vertices_.clear();
  listed_ = true;
  scratch_.clear();
  added_.clear();
  removed_.clear();
  // No staged set exceeds n vertices; reserving up front keeps the
  // staging, merge and cache rebuild paths allocation-free for the whole
  // run.
  vertices_.reserve(static_cast<std::size_t>(n));
  scratch_.reserve(static_cast<std::size_t>(n));
  added_.reserve(static_cast<std::size_t>(n));
  removed_.reserve(static_cast<std::size_t>(n));
}

std::size_t EnabledSet::fill_words(VertexId begin, VertexId end,
                                   const std::uint8_t* verdicts) {
  // Empty trailing shards start at n, which need not be word-aligned.
  assert(begin <= end && (begin % 64 == 0 || begin == end));
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

void EnabledSet::list() const {
  // Within the reset() reservation: the set never exceeds n vertices.
  vertices_.resize(count_);
  VertexId* out = vertices_.data();
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t mask = words_[w];
    const auto base = static_cast<VertexId>(w * 64);
    if (mask == ~std::uint64_t{0}) {
      // A full word is a run of 64 ids.  Synchronous runs keep most
      // vertices enabled, and a traced or observed one lists its action
      // on every step.
      for (VertexId b = 0; b < 64; ++b) *out++ = base + b;
      continue;
    }
    while (mask != 0) {
      *out++ = base + static_cast<VertexId>(std::countr_zero(mask));
      mask &= mask - 1;
    }
  }
  assert(out == vertices_.data() + vertices_.size());
  listed_ = true;
}

const std::vector<VertexId>& EnabledView::vertices() const {
  return set_ != nullptr ? set_->vertices() : *sorted_;
}

void EnabledSet::assign(const std::vector<VertexId>& sorted_enabled) {
  std::fill(words_.begin(), words_.end(), 0);
  for (VertexId v : sorted_enabled) {
    const auto i = static_cast<std::size_t>(v);
    words_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  count_ = sorted_enabled.size();
  // Copy into the reserved buffer — moving the argument in would replace
  // it with a smaller allocation and re-introduce mid-run growth.
  vertices_.assign(sorted_enabled.begin(), sorted_enabled.end());
  listed_ = true;
}

bool EnabledSet::commit() {
  if (added_.empty() && removed_.empty()) return false;
  // The words already hold the flips; an invalid cache is rebuilt from
  // them when next asked for.
  if (!listed_) return true;
  if (added_.size() + removed_.size() <= 8) {
    // The common case under central daemons: a couple of flips per
    // action.  Binary search + memmove beats a full merge pass.
    //
    // The asserts hold the staging contract: removed_ must be a subset
    // of vertices_ and added_ disjoint from it (note() keeps both in
    // lockstep with the words).  A breach — e.g. a caller rewriting the
    // words without invalidating the cache — would otherwise erase the
    // wrong vertex or end(), which is UB, not a detectable failure.
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

}  // namespace specstab
