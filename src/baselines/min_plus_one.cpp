#include "baselines/min_plus_one.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/properties.hpp"
#include "sim/protocol.hpp"

namespace specstab {

static_assert(ProtocolConcept<MinPlusOneProtocol>,
              "MinPlusOneProtocol must satisfy ProtocolConcept");

MinPlusOneProtocol::MinPlusOneProtocol(const Graph& g, VertexId root)
    : root_(root), cap_(g.n()) {
  if (root < 0 || root >= g.n()) {
    throw std::invalid_argument("MinPlusOneProtocol: root out of range");
  }
  if (!g.is_connected()) {
    throw std::invalid_argument("MinPlusOneProtocol: graph must be connected");
  }
  exact_ = bfs_distances(g, root);
}

MinPlusOneProtocol::State MinPlusOneProtocol::target(
    const Graph& g, const ConfigView<State>& cfg, VertexId v) const {
  if (v == root_) return 0;
  State best = cap_;
  for (VertexId u : g.neighbors(v)) {
    best = std::min(best, cfg[static_cast<std::size_t>(u)]);
  }
  return static_cast<State>(std::min<std::int64_t>(
      static_cast<std::int64_t>(best) + 1, cap_));
}

bool MinPlusOneProtocol::enabled(const Graph& g, const ConfigView<State>& cfg,
                                 VertexId v) const {
  return cfg[static_cast<std::size_t>(v)] != target(g, cfg, v);
}

MinPlusOneProtocol::State MinPlusOneProtocol::apply(
    const Graph& g, const ConfigView<State>& cfg, VertexId v) const {
  if (!enabled(g, cfg, v)) {
    throw std::logic_error("MinPlusOneProtocol::apply on disabled vertex");
  }
  return target(g, cfg, v);
}

bool MinPlusOneProtocol::legitimate(const Graph& g,
                                    const ConfigView<State>& cfg) const {
  for (VertexId v = 0; v < g.n(); ++v) {
    if (cfg[static_cast<std::size_t>(v)] != exact_[static_cast<std::size_t>(v)])
      return false;
  }
  return true;
}

SimdEval<MinPlusOneProtocol>::Context SimdEval<MinPlusOneProtocol>::
    make_context(const Graph& g, const MinPlusOneProtocol&) {
  return {g.offsets(), g.targets()};
}

void SimdEval<MinPlusOneProtocol>::enabled_bytes(
    const Context& ctx, const MinPlusOneProtocol& proto,
    const ConfigView<std::int32_t>& cfg, std::uint8_t* out,
    std::int32_t* next, VertexId begin, VertexId end) {
  const std::int32_t* c = cfg.column();
  const std::int64_t* off = ctx.offsets.data();
  const VertexId* tg = ctx.targets.data();
  const std::int32_t cap = proto.level_cap();
  const VertexId root = proto.root();
  for (VertexId v = begin; v < end; ++v) {
    std::int32_t best = cap;
    for (std::int64_t j = off[v]; j < off[v + 1]; ++j) {
      const std::int32_t lu = c[static_cast<std::size_t>(tg[j])];
      best = lu < best ? lu : best;
    }
    // target(): the +1 runs in int64 like the scalar path, so corrupted
    // extreme levels clamp identically instead of wrapping.
    const auto target = static_cast<std::int32_t>(
        std::min<std::int64_t>(static_cast<std::int64_t>(best) + 1, cap));
    next[v] = v == root ? 0 : target;  // disabled: already the target
    out[v] = static_cast<std::uint8_t>(c[static_cast<std::size_t>(v)] !=
                                       next[v]);
  }
}

VertexId MinPlusOneProtocol::parent(const Graph& g,
                                    const ConfigView<State>& cfg,
                                    VertexId v) const {
  if (v == root_) return -1;
  VertexId best = -1;
  State best_level = cap_;
  for (VertexId u : g.neighbors(v)) {
    const State lu = cfg[static_cast<std::size_t>(u)];
    if (lu < best_level) {
      best_level = lu;
      best = u;
    }
  }
  return best;
}

}  // namespace specstab
