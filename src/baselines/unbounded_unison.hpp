// Unbounded-clock asynchronous unison — the ancestor of the bounded
// Boulinier-Petit-Villain protocol the paper builds SSME on (paper
// references [6] Couvreur, Francez & Gouda, ICDCS 1992, and [12] Gouda &
// Herman, IPL 1990).
//
// Each vertex holds an unbounded integer clock and increments exactly
// when it is a local minimum (c_v <= c_u for every neighbour).  From any
// configuration the global minimum climbs until every neighbouring pair
// is within drift 1, and stays there: the protocol self-stabilizes to
// asynchronous unison with *no* topology-dependent parameters — the
// simplicity the cherry clock's tail-and-ring machinery buys back once
// memory must be bounded.
//
// Two costs separate it from the bounded protocol:
//   - registers grow without bound (no finite-state implementation);
//   - the stabilization time is Theta(spread) = max - min of the initial
//     clocks, which a transient fault can make arbitrarily large —
//     whereas the cherry clock's reset wave caps recovery by the
//     topology, not by the corrupted values.
// bench_unison_comparison quantifies both points against the paper's
// choice.
#ifndef SPECSTAB_BASELINES_UNBOUNDED_UNISON_HPP
#define SPECSTAB_BASELINES_UNBOUNDED_UNISON_HPP

#include <cstdint>
#include <span>
#include <string_view>

#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/simd_eval.hpp"
#include "sim/types.hpp"

namespace specstab {

class UnboundedUnisonProtocol {
 public:
  using State = std::int64_t;

  // --- ProtocolConcept ---

  /// Enabled iff v is a local minimum: c_v <= c_u for every neighbour.
  [[nodiscard]] bool enabled(const Graph& g, const ConfigView<State>& cfg,
                             VertexId v) const;
  [[nodiscard]] State apply(const Graph& g, const ConfigView<State>& cfg,
                            VertexId v) const;
  [[nodiscard]] std::string_view rule_name(const Graph& g,
                                           const ConfigView<State>& cfg,
                                           VertexId v) const;

  // --- Specification (spec_AU safety slice) ---

  /// Every neighbouring pair within drift 1.
  [[nodiscard]] bool legitimate(const Graph& g,
                                const ConfigView<State>& cfg) const;

  /// max - min over all clocks (the quantity stabilization consumes).
  [[nodiscard]] static std::int64_t spread(const Config<State>& cfg);
};

/// Vectorized guard kernel: the local-minimum test is an and-reduction
/// of c_v <= c_u over the neighbour clocks streamed from the graph's CSR
/// arrays; the successor is c_v + 1.
template <>
struct SimdEval<UnboundedUnisonProtocol> {
  /// Views of the graph's CSR arrays, so it must not outlive the graph.
  struct Context {
    std::span<const std::int64_t> offsets;  ///< g.offsets()
    std::span<const VertexId> targets;      ///< g.targets()
  };
  static Context make_context(const Graph& g, const UnboundedUnisonProtocol&);
  static void enabled_bytes(const Context& ctx, const UnboundedUnisonProtocol&,
                            const ConfigView<std::int64_t>& cfg,
                            std::uint8_t* out, std::int64_t* next,
                            VertexId begin, VertexId end);
};

}  // namespace specstab

#endif  // SPECSTAB_BASELINES_UNBOUNDED_UNISON_HPP
