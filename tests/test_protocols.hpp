// Test-only protocols exercising the engine machinery beyond what the
// shipped radius-1 protocols reach.
#ifndef SPECSTAB_TESTS_TEST_PROTOCOLS_HPP
#define SPECSTAB_TESTS_TEST_PROTOCOLS_HPP

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "graph/graph.hpp"
#include "sim/types.hpp"

namespace specstab {

/// Two-hop max propagation: a vertex is enabled when some vertex within
/// two hops holds a larger value, and then adopts the maximum over its
/// 2-ball.  Converges to the all-global-max configuration (silent).  The
/// guard genuinely depends on states two hops away, so the protocol must
/// declare locality_radius() = 2 for the production engine to be
/// correct; constructing it with an understated radius lets tests verify
/// the locality cross-check fails loudly.
class TwoHopMaxProtocol {
 public:
  using State = std::int32_t;

  explicit TwoHopMaxProtocol(VertexId declared_radius = 2)
      : declared_radius_(declared_radius) {}

  [[nodiscard]] VertexId locality_radius() const noexcept {
    return declared_radius_;
  }

  [[nodiscard]] State ball_max(const Graph& g, const Config<State>& cfg,
                               VertexId v) const {
    State best = cfg[static_cast<std::size_t>(v)];
    for (VertexId u : g.neighbors(v)) {
      best = std::max(best, cfg[static_cast<std::size_t>(u)]);
      for (VertexId w : g.neighbors(u)) {
        best = std::max(best, cfg[static_cast<std::size_t>(w)]);
      }
    }
    return best;
  }

  // --- ProtocolConcept ---
  [[nodiscard]] bool enabled(const Graph& g, const Config<State>& cfg,
                             VertexId v) const {
    return cfg[static_cast<std::size_t>(v)] < ball_max(g, cfg, v);
  }
  [[nodiscard]] State apply(const Graph& g, const Config<State>& cfg,
                            VertexId v) const {
    if (!enabled(g, cfg, v)) {
      throw std::logic_error("TwoHopMaxProtocol::apply on disabled vertex");
    }
    return ball_max(g, cfg, v);
  }
  [[nodiscard]] std::string_view rule_name(const Graph&, const Config<State>&,
                                           VertexId) const {
    return "ADOPT-MAX-2";
  }

  /// Terminal == legitimate: every vertex already holds its 2-ball max.
  [[nodiscard]] bool legitimate(const Graph& g,
                                const Config<State>& cfg) const {
    for (VertexId v = 0; v < g.n(); ++v) {
      if (enabled(g, cfg, v)) return false;
    }
    return true;
  }

 private:
  VertexId declared_radius_;
};

}  // namespace specstab

#endif  // SPECSTAB_TESTS_TEST_PROTOCOLS_HPP
