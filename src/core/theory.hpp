// Closed-form bounds from the paper and the works it builds on, used by
// the bench harness to print paper-vs-measured rows.
#ifndef SPECSTAB_CORE_THEORY_HPP
#define SPECSTAB_CORE_THEORY_HPP

#include <cstdint>

#include "graph/graph.hpp"

namespace specstab {

/// Theorem 2: conv_time(SSME, sd) <= ceil(diam/2) steps.
[[nodiscard]] std::int64_t ssme_sync_bound(VertexId diam);

/// Theorem 4: conv_time(pi, sd) >= ceil(diam/2) for ANY self-stabilizing
/// mutual exclusion protocol (the lower bound; same value as Theorem 2 —
/// SSME is optimal).
[[nodiscard]] std::int64_t mutex_sync_lower_bound(VertexId diam);

/// Theorem 3 via Devismes & Petit [7]: SSME stabilizes under ud within
/// 2 diam n^3 + (alpha+1) n^2 + (alpha - 2 diam) n steps, with alpha = n.
/// Saturates at INT64_MAX (reached from about a 10^6-vertex torus on).
[[nodiscard]] std::int64_t ssme_ud_bound(VertexId n, VertexId diam);

/// The default step cap of ssme and unison sessions: twice the Theorem-3
/// bound, saturating at INT64_MAX like the bound itself.
[[nodiscard]] std::int64_t ssme_ud_step_cap(VertexId n, VertexId diam);

/// Boulinier et al. [3]: the unison reaches Gamma_1 within
/// alpha + lcp(g) + diam(g) synchronous steps.
[[nodiscard]] std::int64_t unison_sync_bound(std::int64_t alpha,
                                             VertexId lcp, VertexId diam);

/// Section 4.1: the SSME ring size K = (2n-1)(diam+1)+2.
[[nodiscard]] std::int64_t ssme_clock_size(VertexId n, VertexId diam);

/// Section 3: Dijkstra's protocol stabilizes in n steps under sd ...
[[nodiscard]] std::int64_t dijkstra_sync_bound(VertexId n);

/// ... and in Theta(n^2) steps under ud; this returns the representative
/// n^2 used for shape comparison.
[[nodiscard]] std::int64_t dijkstra_ud_theta(VertexId n);

/// Section 3: min+1 BFS construction, Theta(diam) under sd
/// (representative: diam + 1 rounds including the root fix) ...
[[nodiscard]] std::int64_t min_plus_one_sync_theta(VertexId diam);

/// ... and Theta(n^2) under ud (representative n^2).
[[nodiscard]] std::int64_t min_plus_one_ud_theta(VertexId n);

/// Section 3: Manne et al. matching, 2n+1 steps under sd ...
[[nodiscard]] std::int64_t matching_sync_bound(VertexId n);

/// ... and 4n+2m steps under ud.
[[nodiscard]] std::int64_t matching_ud_bound(VertexId n, std::int64_t m);

}  // namespace specstab

#endif  // SPECSTAB_CORE_THEORY_HPP
