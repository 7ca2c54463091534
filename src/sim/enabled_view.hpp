// The read-only view of the enabled set that daemons and the round
// counter take.
#ifndef SPECSTAB_SIM_ENABLED_VIEW_HPP
#define SPECSTAB_SIM_ENABLED_VIEW_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace specstab {

class EnabledSet;  // sim/enabled_set.hpp

/// Read-only view of the enabled set.  Non-owning; valid only while its
/// source is unchanged (one select_into() call).  It reads one of two
/// sources:
///
///   - a sorted vertex vector (tests, one-shot tools, the reference
///     engine): contains() binary-searches it;
///   - the production engine's EnabledSet: contains() tests one bit of
///     its mask words and size() reads its count, so neither lists the
///     set; vertices() and the accessors built on it ask the set for its
///     sorted cache, which it rebuilds on first use after a dense step.
class EnabledView {
 public:
  /* implicit */ EnabledView(const std::vector<VertexId>& sorted)
      : sorted_(&sorted), size_(sorted.size()) {}
  /// Over `set`, whose mask words (bit v % 64 of word v / 64 set iff v
  /// is enabled) are `words` and whose count is `size`.  Built by
  /// EnabledSet::view().
  EnabledView(const EnabledSet& set, const std::vector<std::uint64_t>& words,
              std::size_t size)
      : set_(&set), words_(&words), size_(size) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Membership test: one bit over an EnabledSet, a binary search over a
  /// vector.
  [[nodiscard]] bool contains(VertexId v) const {
    if (words_ != nullptr) {
      const auto i = static_cast<std::size_t>(v);
      return i / 64 < words_->size() &&
             (((*words_)[i / 64] >> (i % 64)) & 1u) != 0;
    }
    return std::binary_search(sorted_->begin(), sorted_->end(), v);
  }

  /// The enabled vertices, ascending.  Over an EnabledSet this may list
  /// the set (defined in enabled_set.cpp); daemons that need only
  /// membership or the size should not call it, and those that index the
  /// set should call it once per action.
  [[nodiscard]] const std::vector<VertexId>& vertices() const;
  [[nodiscard]] VertexId front() const { return vertices().front(); }
  [[nodiscard]] VertexId back() const { return vertices().back(); }
  [[nodiscard]] VertexId operator[](std::size_t i) const {
    return vertices()[i];
  }

 private:
  const std::vector<VertexId>* sorted_ = nullptr;
  const EnabledSet* set_ = nullptr;
  const std::vector<std::uint64_t>* words_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace specstab

#endif  // SPECSTAB_SIM_ENABLED_VIEW_HPP
