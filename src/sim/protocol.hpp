// The distributed-protocol abstraction (paper, Section 2).
//
// All protocols in the paper are *deterministic*: per vertex, the guards of
// the local rules are pairwise exclusive, so once the daemon decides to
// activate an enabled vertex, the successor state is unique.  A protocol
// therefore exposes:
//   - enabled(g, cfg, v): whether some rule's guard holds at v,
//   - apply(g, cfg, v):   the unique successor state of v (precondition:
//                         enabled),
//   - rule_name(g, cfg, v): the <label> of the enabled rule, for traces.
// The daemon (see daemon.hpp) supplies the activation set; the engine
// (engine.hpp) applies all activated vertices against the pre-state.
#ifndef SPECSTAB_SIM_PROTOCOL_HPP
#define SPECSTAB_SIM_PROTOCOL_HPP

#include <concepts>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/types.hpp"

namespace specstab {

// Protocols consume configurations through the ConfigView proxy
// (config_store.hpp): the same guard code runs over the reference
// engine's plain vector and over the production engine's store.
// Protocols written against `const Config<State>&` still satisfy the
// concept (the view converts back to its backing vector), so test
// doubles need no migration.
template <class P>
concept ProtocolConcept = requires(const P& p, const Graph& g,
                                   ConfigView<typename P::State> cfg,
                                   VertexId v) {
  typename P::State;
  { p.enabled(g, cfg, v) } -> std::same_as<bool>;
  { p.apply(g, cfg, v) } -> std::same_as<typename P::State>;
  { p.rule_name(g, cfg, v) } -> std::convertible_to<std::string_view>;
};

/// Optional ProtocolConcept extension: a protocol may declare the radius
/// of its guard dependency — enabled(g, cfg, v) reads only the states of
/// vertices within graph distance locality_radius() of v.  The
/// production engine (parallel_engine.hpp) uses the radius to bound the
/// dirty set after a sparse step; the locality cross-check test
/// brute-forces the true radius on small graphs and fails loudly on a
/// protocol that understates it.
template <class P>
concept HasLocalityRadius = requires(const P& p) {
  { p.locality_radius() } -> std::convertible_to<VertexId>;
};

/// The declared guard-dependency radius of a protocol; 1 when the
/// protocol does not declare one (every guard in the Dijkstra state model
/// reads at most the closed neighborhood unless stated otherwise).
template <ProtocolConcept P>
[[nodiscard]] constexpr VertexId protocol_locality_radius(const P& p) {
  if constexpr (HasLocalityRadius<P>) {
    return static_cast<VertexId>(p.locality_radius());
  } else {
    return 1;
  }
}

/// Sorted list of vertices enabled in `cfg`.
template <ProtocolConcept P>
[[nodiscard]] std::vector<VertexId> enabled_vertices(
    const Graph& g, const P& proto, ConfigView<typename P::State> cfg) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.n(); ++v) {
    if (proto.enabled(g, cfg, v)) out.push_back(v);
  }
  return out;
}

/// True iff no vertex is enabled (the configuration is terminal).
template <ProtocolConcept P>
[[nodiscard]] bool is_terminal(const Graph& g, const P& proto,
                               ConfigView<typename P::State> cfg) {
  for (VertexId v = 0; v < g.n(); ++v) {
    if (proto.enabled(g, cfg, v)) return false;
  }
  return true;
}

}  // namespace specstab

#endif  // SPECSTAB_SIM_PROTOCOL_HPP
