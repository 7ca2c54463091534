#include "extensions/coloring.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

namespace specstab {

namespace {

std::int32_t max_degree(const Graph& g) {
  VertexId best = 0;
  for (VertexId v = 0; v < g.n(); ++v) best = std::max(best, g.degree(v));
  return best;
}

}  // namespace

ColoringProtocol::ColoringProtocol(const Graph& g)
    : ColoringProtocol(g, max_degree(g) + 1) {}

ColoringProtocol::ColoringProtocol(const Graph& g, std::int32_t palette_size)
    : palette_(palette_size) {
  if (palette_ <= max_degree(g)) {
    throw std::invalid_argument(
        "coloring: palette must exceed the maximum degree");
  }
}

bool ColoringProtocol::enabled(const Graph& g, const ConfigView<State>& cfg,
                               VertexId v) const {
  const State cv = cfg[static_cast<std::size_t>(v)];
  if (!in_palette(cv)) return true;
  for (VertexId u : g.neighbors(v)) {
    // Seniority: only the junior endpoint of a monochromatic edge yields.
    if (u > v && cfg[static_cast<std::size_t>(u)] == cv) return true;
  }
  return false;
}

ColoringProtocol::State ColoringProtocol::apply(const Graph& g,
                                                const ConfigView<State>& cfg,
                                                VertexId v) const {
  // Smallest palette color unused by any neighbour (corrupted neighbour
  // colors outside the palette constrain nothing).
  std::vector<bool> used(static_cast<std::size_t>(palette_), false);
  for (VertexId u : g.neighbors(v)) {
    const State cu = cfg[static_cast<std::size_t>(u)];
    if (in_palette(cu)) used[static_cast<std::size_t>(cu)] = true;
  }
  for (std::int32_t c = 0; c < palette_; ++c) {
    if (!used[static_cast<std::size_t>(c)]) return c;
  }
  // Unreachable: palette_ > max degree guarantees a free color.
  return palette_ - 1;
}

std::string_view ColoringProtocol::rule_name(const Graph& g,
                                             const ConfigView<State>& cfg,
                                             VertexId v) const {
  if (!enabled(g, cfg, v)) return "";
  return in_palette(cfg[static_cast<std::size_t>(v)]) ? "YIELD" : "REPAIR";
}

bool ColoringProtocol::legitimate(const Graph& g,
                                  const ConfigView<State>& cfg) const {
  for (VertexId v = 0; v < g.n(); ++v) {
    if (!in_palette(cfg[static_cast<std::size_t>(v)])) return false;
  }
  return conflict_count(g, cfg) == 0;
}

std::int64_t ColoringProtocol::conflict_count(
    const Graph& g, const ConfigView<State>& cfg) const {
  std::int64_t conflicts = 0;
  for (VertexId u = 0; u < g.n(); ++u) {
    const State cu = cfg[static_cast<std::size_t>(u)];
    for (VertexId v : g.neighbors(u)) {
      if (u < v && cu == cfg[static_cast<std::size_t>(v)]) ++conflicts;
    }
  }
  return conflicts;
}

Config<std::int32_t> random_coloring_config(const Graph& g,
                                            std::int32_t palette_size,
                                            std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int32_t> dist(-palette_size,
                                                   2 * palette_size - 1);
  Config<std::int32_t> cfg(static_cast<std::size_t>(g.n()));
  for (auto& c : cfg) c = dist(rng);
  return cfg;
}

Config<std::int32_t> monochrome_config(const Graph& g, std::int32_t color) {
  return Config<std::int32_t>(static_cast<std::size_t>(g.n()), color);
}

}  // namespace specstab
