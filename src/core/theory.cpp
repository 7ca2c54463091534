#include "core/theory.hpp"

#include <limits>

namespace specstab {

namespace {

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/// `value` clamped to INT64_MAX.  The widened operands keep every
/// intermediate exact: for n, diam < 2^31, 4 diam n^3 < 2^127.
std::int64_t saturate(__int128 value) {
  return value > kInt64Max ? kInt64Max : static_cast<std::int64_t>(value);
}

__int128 exact_ssme_ud_bound(VertexId n, VertexId diam) {
  const __int128 nn = n;
  const __int128 d = diam;
  const __int128 alpha = nn;  // SSME chooses alpha = n
  return 2 * d * nn * nn * nn + (alpha + 1) * nn * nn + (alpha - 2 * d) * nn;
}

}  // namespace

std::int64_t ssme_sync_bound(VertexId diam) { return (diam + 1) / 2; }

std::int64_t mutex_sync_lower_bound(VertexId diam) {
  return (diam + 1) / 2;
}

std::int64_t ssme_ud_bound(VertexId n, VertexId diam) {
  return saturate(exact_ssme_ud_bound(n, diam));
}

std::int64_t ssme_ud_step_cap(VertexId n, VertexId diam) {
  return saturate(2 * exact_ssme_ud_bound(n, diam));
}

std::int64_t unison_sync_bound(std::int64_t alpha, VertexId lcp,
                               VertexId diam) {
  return alpha + lcp + diam;
}

std::int64_t ssme_clock_size(VertexId n, VertexId diam) {
  return (2 * static_cast<std::int64_t>(n) - 1) *
             (static_cast<std::int64_t>(diam) + 1) +
         2;
}

std::int64_t dijkstra_sync_bound(VertexId n) { return n; }

std::int64_t dijkstra_ud_theta(VertexId n) {
  return static_cast<std::int64_t>(n) * n;
}

std::int64_t min_plus_one_sync_theta(VertexId diam) { return diam + 1; }

std::int64_t min_plus_one_ud_theta(VertexId n) {
  return static_cast<std::int64_t>(n) * n;
}

std::int64_t matching_sync_bound(VertexId n) {
  return 2 * static_cast<std::int64_t>(n) + 1;
}

std::int64_t matching_ud_bound(VertexId n, std::int64_t m) {
  return 4 * static_cast<std::int64_t>(n) + 2 * m;
}

}  // namespace specstab
