// Huang & Chen's self-stabilizing "min+1" BFS spanning-tree construction
// (IPL 1992), the paper's second example of accidental speculation
// (Section 3): Theta(n^2) steps under the unfair distributed daemon but
// Theta(diam(g)) under the synchronous one.
//
// Every vertex maintains a level estimate in [0, n]; the distinguished
// root (vertex 0) drives its level to 0, every other vertex to
// 1 + min(neighbour levels), capped at n (the levels' bounded domain,
// which keeps the protocol self-stabilizing from arbitrary corruption).
// The legitimate configurations assign every vertex its exact BFS
// distance from the root — from which a BFS spanning tree is read off by
// each vertex picking its minimum-level neighbour as parent.
#ifndef SPECSTAB_BASELINES_MIN_PLUS_ONE_HPP
#define SPECSTAB_BASELINES_MIN_PLUS_ONE_HPP

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/simd_eval.hpp"
#include "sim/types.hpp"

namespace specstab {

class MinPlusOneProtocol {
 public:
  using State = std::int32_t;

  /// Root defaults to vertex 0; level domain is [0, cap] with cap = n.
  explicit MinPlusOneProtocol(const Graph& g, VertexId root = 0);

  [[nodiscard]] VertexId root() const noexcept { return root_; }
  [[nodiscard]] State level_cap() const noexcept { return cap_; }

  /// The value the protocol drives v towards in `cfg`: 0 at the root,
  /// min(1 + min neighbour level, cap) elsewhere.
  [[nodiscard]] State target(const Graph& g, const ConfigView<State>& cfg,
                             VertexId v) const;

  // --- ProtocolConcept ---
  [[nodiscard]] bool enabled(const Graph& g, const ConfigView<State>& cfg,
                             VertexId v) const;
  [[nodiscard]] State apply(const Graph& g, const ConfigView<State>& cfg,
                            VertexId v) const;
  [[nodiscard]] std::string_view rule_name(const Graph&,
                                           const ConfigView<State>&,
                                           VertexId v) const {
    return v == root_ ? "ROOT" : "MIN+1";
  }

  /// Legitimate configurations: every level equals the BFS distance from
  /// the root (precomputed at construction).
  [[nodiscard]] bool legitimate(const Graph& g,
                                const ConfigView<State>& cfg) const;

  /// Parent of v in the constructed BFS tree (minimum-level neighbour,
  /// smallest id tie-break); -1 for the root.  Meaningful in legitimate
  /// configurations.
  [[nodiscard]] VertexId parent(const Graph& g, const ConfigView<State>& cfg,
                                VertexId v) const;

  /// The exact BFS levels (the unique legitimate configuration).
  [[nodiscard]] const Config<State>& exact_levels() const noexcept {
    return exact_;
  }

 private:
  VertexId root_;
  State cap_;
  Config<State> exact_;
};

/// Vectorized guard kernel: target(v) is a min-reduction over the
/// neighbour levels streamed from the graph's CSR arrays, enabledness
/// one compare against the level column, and the successor the target
/// itself.
template <>
struct SimdEval<MinPlusOneProtocol> {
  /// Views of the graph's CSR arrays, so it must not outlive the graph.
  struct Context {
    std::span<const std::int64_t> offsets;  ///< g.offsets()
    std::span<const VertexId> targets;      ///< g.targets()
  };
  static Context make_context(const Graph& g, const MinPlusOneProtocol&);
  static void enabled_bytes(const Context& ctx, const MinPlusOneProtocol& proto,
                            const ConfigView<std::int32_t>& cfg,
                            std::uint8_t* out, std::int32_t* next,
                            VertexId begin, VertexId end);
};

}  // namespace specstab

#endif  // SPECSTAB_BASELINES_MIN_PLUS_ONE_HPP
