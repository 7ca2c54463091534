// Dijkstra's K-state self-stabilizing token ring (CACM 1974) — the
// seminal mutual-exclusion protocol the paper benchmarks against.
//
// Vertices 0..n-1 form a unidirectional ring; each holds a counter in
// [0, K-1] with K >= n.  Vertex 0 (the "bottom" machine) is privileged
// when its counter equals its predecessor's (vertex n-1) and then
// increments mod K; every other vertex is privileged when its counter
// differs from its predecessor's and then copies it.  Exactly the enabled
// vertices are privileged, so the legitimate configurations are those with
// a single token (single enabled vertex).
//
// The paper classifies it as (ud, sd, g -> n^2, g -> n)-speculatively
// stabilizing: Theta(n^2) steps under the unfair distributed daemon, n
// steps under the synchronous one (Section 3) — the 40-year-old
// synchronous bound SSME's ceil(diam/2) finally beats.
//
// The protocol is defined on make_ring(n); it reads the topology from its
// stored n, so the Graph argument of the ProtocolConcept interface is
// only used for bounds checking.
#ifndef SPECSTAB_BASELINES_DIJKSTRA_RING_HPP
#define SPECSTAB_BASELINES_DIJKSTRA_RING_HPP

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/simd_eval.hpp"
#include "sim/types.hpp"

namespace specstab {

class DijkstraRingProtocol {
 public:
  using State = std::int32_t;

  /// n >= 2 processes, counters modulo k >= n (Dijkstra's requirement
  /// k > n - 1 for stabilization under a central daemon; k >= n suffices
  /// and we default to k = n + 1 in for_ring).
  DijkstraRingProtocol(VertexId n, State k);

  [[nodiscard]] static DijkstraRingProtocol for_ring(const Graph& ring);

  [[nodiscard]] VertexId n() const noexcept { return n_; }
  [[nodiscard]] State k() const noexcept { return k_; }

  // --- ProtocolConcept ---
  [[nodiscard]] bool enabled(const Graph& g, const ConfigView<State>& cfg,
                             VertexId v) const;
  /// Guards read only the predecessor's counter, which is a ring
  /// neighbour.
  [[nodiscard]] VertexId locality_radius() const noexcept { return 1; }
  [[nodiscard]] State apply(const Graph& g, const ConfigView<State>& cfg,
                            VertexId v) const;
  [[nodiscard]] std::string_view rule_name(const Graph& g,
                                           const ConfigView<State>& cfg,
                                           VertexId v) const;

  // --- Mutual exclusion view ---

  /// In Dijkstra's protocol, privilege == enabledness.
  [[nodiscard]] bool privileged(const ConfigView<State>& cfg, VertexId v) const;

  [[nodiscard]] VertexId count_privileged(const ConfigView<State>& cfg) const;

  /// Legitimate configurations: exactly one token.
  [[nodiscard]] bool legitimate(const Graph& g,
                                const ConfigView<State>& cfg) const;

  /// Priority order for the worst-case "token chase" central schedule
  /// (use with PriorityCentralDaemon): always serve the enabled non-bottom
  /// vertex with the largest id, postponing the bottom machine as long as
  /// possible.  From max_token_config() this realises the Theta(n^2)
  /// step behaviour of Section 3.
  [[nodiscard]] static std::vector<VertexId> token_chase_priority(VertexId n);

  /// An initial configuration with the maximum number of tokens (all
  /// counters distinct): 0, K-1, K-2, ...
  [[nodiscard]] Config<State> max_token_config() const;

 private:
  [[nodiscard]] VertexId predecessor(VertexId v) const {
    return v == 0 ? n_ - 1 : v - 1;
  }

  VertexId n_;
  State k_;
};

/// Vectorized guard kernel: the predecessor of v is v - 1 (n - 1 for the
/// bottom machine), so the guards are one shifted compare over the
/// counter column and the successors one shifted copy (the bottom
/// machine's incremented mod K) — no adjacency context needed.
template <>
struct SimdEval<DijkstraRingProtocol> {
  struct Context {};
  static Context make_context(const Graph&, const DijkstraRingProtocol&) {
    return {};
  }
  static void enabled_bytes(const Context&, const DijkstraRingProtocol& proto,
                            const ConfigView<std::int32_t>& cfg,
                            std::uint8_t* out, std::int32_t* next,
                            VertexId begin, VertexId end);
};

}  // namespace specstab

#endif  // SPECSTAB_BASELINES_DIJKSTRA_RING_HPP
