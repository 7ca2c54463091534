// Test-only protocols exercising the engine machinery beyond what the
// shipped radius-1 protocols reach.
#ifndef SPECSTAB_TESTS_TEST_PROTOCOLS_HPP
#define SPECSTAB_TESTS_TEST_PROTOCOLS_HPP

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "baselines/unbounded_unison.hpp"
#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/simd_eval.hpp"
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

/// Unbounded unison whose apply() counts its calls into a caller-owned
/// counter, with a SimdEval kernel forwarding to the unbounded unison's.
/// Tests read the counter to see which dense installs re-derive their
/// successors through apply() and which take them from the kernel's
/// successor column.  The count is atomic: dense installs call apply()
/// from every shard.
class CountingUnisonProtocol {
 public:
  using State = std::int64_t;

  explicit CountingUnisonProtocol(std::atomic<std::int64_t>& applies)
      : applies_(&applies) {}

  [[nodiscard]] const UnboundedUnisonProtocol& inner() const noexcept {
    return inner_;
  }

  // --- ProtocolConcept ---
  [[nodiscard]] bool enabled(const Graph& g, const ConfigView<State>& cfg,
                             VertexId v) const {
    return inner_.enabled(g, cfg, v);
  }
  [[nodiscard]] State apply(const Graph& g, const ConfigView<State>& cfg,
                            VertexId v) const {
    applies_->fetch_add(1, std::memory_order_relaxed);
    return inner_.apply(g, cfg, v);
  }
  [[nodiscard]] std::string_view rule_name(const Graph& g,
                                           const ConfigView<State>& cfg,
                                           VertexId v) const {
    return inner_.rule_name(g, cfg, v);
  }

 private:
  UnboundedUnisonProtocol inner_;
  std::atomic<std::int64_t>* applies_;
};

template <>
struct SimdEval<CountingUnisonProtocol> {
  using Context = SimdEval<UnboundedUnisonProtocol>::Context;
  static Context make_context(const Graph& g,
                              const CountingUnisonProtocol& proto) {
    return SimdEval<UnboundedUnisonProtocol>::make_context(g, proto.inner());
  }
  static void enabled_bytes(const Context& ctx,
                            const CountingUnisonProtocol& proto,
                            const ConfigView<std::int64_t>& cfg,
                            std::uint8_t* out, std::int64_t* next,
                            VertexId begin, VertexId end) {
    SimdEval<UnboundedUnisonProtocol>::enabled_bytes(ctx, proto.inner(), cfg,
                                                     out, next, begin, end);
  }
};

}  // namespace specstab

#endif  // SPECSTAB_TESTS_TEST_PROTOCOLS_HPP
