#include "baselines/dijkstra_ring.hpp"

#include <stdexcept>

#include "sim/protocol.hpp"

namespace specstab {

static_assert(ProtocolConcept<DijkstraRingProtocol>,
              "DijkstraRingProtocol must satisfy ProtocolConcept");

DijkstraRingProtocol::DijkstraRingProtocol(VertexId n, State k)
    : n_(n), k_(k) {
  if (n < 2) throw std::invalid_argument("DijkstraRingProtocol: need n >= 2");
  if (k < n) throw std::invalid_argument("DijkstraRingProtocol: need K >= n");
}

DijkstraRingProtocol DijkstraRingProtocol::for_ring(const Graph& ring) {
  return DijkstraRingProtocol(ring.n(), ring.n() + 1);
}

bool DijkstraRingProtocol::enabled(const Graph& g, const ConfigView<State>& cfg,
                                   VertexId v) const {
  if (v < 0 || v >= g.n() || g.n() != n_) {
    throw std::invalid_argument("DijkstraRingProtocol: vertex/graph mismatch");
  }
  const State own = cfg[static_cast<std::size_t>(v)];
  const State pred = cfg[static_cast<std::size_t>(predecessor(v))];
  return v == 0 ? own == pred : own != pred;
}

DijkstraRingProtocol::State DijkstraRingProtocol::apply(
    const Graph& g, const ConfigView<State>& cfg, VertexId v) const {
  if (!enabled(g, cfg, v)) {
    throw std::logic_error("DijkstraRingProtocol::apply on disabled vertex");
  }
  const State pred = cfg[static_cast<std::size_t>(predecessor(v))];
  if (v == 0) return static_cast<State>((pred + 1) % k_);
  return pred;
}

std::string_view DijkstraRingProtocol::rule_name(const Graph&,
                                                 const ConfigView<State>&,
                                                 VertexId v) const {
  return v == 0 ? "BOTTOM" : "COPY";
}

bool DijkstraRingProtocol::privileged(const ConfigView<State>& cfg,
                                      VertexId v) const {
  const State own = cfg[static_cast<std::size_t>(v)];
  const State pred = cfg[static_cast<std::size_t>(predecessor(v))];
  return v == 0 ? own == pred : own != pred;
}

VertexId DijkstraRingProtocol::count_privileged(
    const ConfigView<State>& cfg) const {
  VertexId count = 0;
  for (VertexId v = 0; v < n_; ++v) {
    if (privileged(cfg, v)) ++count;
  }
  return count;
}

bool DijkstraRingProtocol::legitimate(const Graph&,
                                      const ConfigView<State>& cfg) const {
  return count_privileged(cfg) == 1;
}

std::vector<VertexId> DijkstraRingProtocol::token_chase_priority(VertexId n) {
  std::vector<VertexId> preference;
  preference.reserve(static_cast<std::size_t>(n));
  for (VertexId v = n - 1; v >= 1; --v) preference.push_back(v);
  preference.push_back(0);
  return preference;
}

void SimdEval<DijkstraRingProtocol>::enabled_bytes(
    const Context&, const DijkstraRingProtocol& proto,
    const ConfigView<std::int32_t>& cfg, std::uint8_t* out,
    std::int32_t* next, VertexId begin, VertexId end) {
  const std::int32_t* c = cfg.column();
  const auto n = cfg.size();
  auto v = static_cast<std::size_t>(begin);
  if (begin == 0 && end > 0) {
    out[0] = static_cast<std::uint8_t>(c[0] == c[n - 1]);
    // apply()'s (pred + 1) % K, in int64 so a disabled INT32_MAX
    // predecessor cannot overflow; equal wherever the int32 sum is defined.
    const auto bumped = static_cast<std::int32_t>(
        (std::int64_t{c[n - 1]} + 1) % proto.k());
    next[0] = out[0] != 0 ? bumped : c[0];
    v = 1;
  }
  for (; v < static_cast<std::size_t>(end); ++v) {
    out[v] = static_cast<std::uint8_t>(c[v] != c[v - 1]);
    next[v] = c[v - 1];  // a disabled vertex already equals its predecessor
  }
}

Config<DijkstraRingProtocol::State> DijkstraRingProtocol::max_token_config()
    const {
  // Counters all distinct: every non-bottom vertex differs from its
  // predecessor, so n-1 tokens circulate plus possibly the bottom's.
  Config<State> cfg(static_cast<std::size_t>(n_));
  for (VertexId v = 0; v < n_; ++v) {
    cfg[static_cast<std::size_t>(v)] = static_cast<State>((k_ - v) % k_);
  }
  return cfg;
}

}  // namespace specstab
