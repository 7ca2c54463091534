#include "baselines/unbounded_unison.hpp"

#include <algorithm>

namespace specstab {

bool UnboundedUnisonProtocol::enabled(const Graph& g,
                                      const ConfigView<State>& cfg,
                                      VertexId v) const {
  const State cv = cfg[static_cast<std::size_t>(v)];
  return std::ranges::all_of(g.neighbors(v), [&](VertexId u) {
    return cv <= cfg[static_cast<std::size_t>(u)];
  });
}

UnboundedUnisonProtocol::State UnboundedUnisonProtocol::apply(
    const Graph& g, const ConfigView<State>& cfg, VertexId v) const {
  (void)g;
  return cfg[static_cast<std::size_t>(v)] + 1;
}

std::string_view UnboundedUnisonProtocol::rule_name(
    const Graph& g, const ConfigView<State>& cfg, VertexId v) const {
  return enabled(g, cfg, v) ? "INC" : "";
}

bool UnboundedUnisonProtocol::legitimate(const Graph& g,
                                         const ConfigView<State>& cfg) const {
  for (VertexId u = 0; u < g.n(); ++u) {
    const State cu = cfg[static_cast<std::size_t>(u)];
    for (VertexId v : g.neighbors(u)) {
      const State du = cu - cfg[static_cast<std::size_t>(v)];
      if (u < v && (du > 1 || du < -1)) return false;
    }
  }
  return true;
}

std::int64_t UnboundedUnisonProtocol::spread(const Config<State>& cfg) {
  if (cfg.empty()) return 0;
  const auto [lo, hi] = std::ranges::minmax_element(cfg);
  return *hi - *lo;
}

SimdEval<UnboundedUnisonProtocol>::Context SimdEval<UnboundedUnisonProtocol>::
    make_context(const Graph& g, const UnboundedUnisonProtocol&) {
  return {g.offsets(), g.targets()};
}

void SimdEval<UnboundedUnisonProtocol>::enabled_bytes(
    const Context& ctx, const UnboundedUnisonProtocol&,
    const ConfigView<std::int64_t>& cfg, std::uint8_t* out,
    std::int64_t* next, VertexId begin, VertexId end) {
  const std::int64_t* c = cfg.column();
  const std::int64_t* off = ctx.offsets.data();
  const VertexId* tg = ctx.targets.data();
  for (VertexId v = begin; v < end; ++v) {
    const std::int64_t cv = c[static_cast<std::size_t>(v)];
    unsigned minimal = 1;  // vacuously a local minimum when deg(v) = 0
    for (std::int64_t j = off[v]; j < off[v + 1]; ++j) {
      minimal &=
          static_cast<unsigned>(cv <= c[static_cast<std::size_t>(tg[j])]);
    }
    out[v] = static_cast<std::uint8_t>(minimal);
    // apply()'s c_v + 1 when enabled, c_v otherwise; added in uint64 so
    // INT64_MAX (never enabled unless apply() itself overflows) wraps
    // instead of overflowing.
    next[v] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cv) +
                                        minimal);
  }
}

}  // namespace specstab
