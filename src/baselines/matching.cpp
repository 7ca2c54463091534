#include "baselines/matching.hpp"

#include <stdexcept>

#include "sim/protocol.hpp"

namespace specstab {

static_assert(ProtocolConcept<MatchingProtocol>,
              "MatchingProtocol must satisfy ProtocolConcept");

bool MatchingProtocol::married(const Graph& g, const ConfigView<State>& cfg,
                               VertexId v) const {
  const State pv = cfg[static_cast<std::size_t>(v)];
  if (pv == kNull) return false;
  return g.has_edge(v, pv) && cfg[static_cast<std::size_t>(pv)] == v;
}

VertexId MatchingProtocol::best_proposer(const Graph& g,
                                         const ConfigView<State>& cfg,
                                         VertexId v) const {
  VertexId best = kNull;
  for (VertexId u : g.neighbors(v)) {
    if (cfg[static_cast<std::size_t>(u)] == v) best = u;  // sorted: last wins
  }
  return best;
}

VertexId MatchingProtocol::best_candidate(const Graph& g,
                                          const ConfigView<State>& cfg,
                                          VertexId v) const {
  VertexId best = kNull;
  for (VertexId u : g.neighbors(v)) {
    if (u > v && cfg[static_cast<std::size_t>(u)] == kNull) best = u;
  }
  return best;
}

bool MatchingProtocol::marriage_guard(const Graph& g,
                                      const ConfigView<State>& cfg,
                                      VertexId v) const {
  return cfg[static_cast<std::size_t>(v)] == kNull &&
         best_proposer(g, cfg, v) != kNull;
}

bool MatchingProtocol::seduction_guard(const Graph& g,
                                       const ConfigView<State>& cfg,
                                       VertexId v) const {
  return cfg[static_cast<std::size_t>(v)] == kNull &&
         best_proposer(g, cfg, v) == kNull &&
         best_candidate(g, cfg, v) != kNull;
}

bool MatchingProtocol::abandonment_guard(const Graph& g,
                                         const ConfigView<State>& cfg,
                                         VertexId v) const {
  const State pv = cfg[static_cast<std::size_t>(v)];
  if (pv == kNull) return false;
  // Arbitrary corruption may point outside the neighbourhood; that is
  // always hopeless.
  if (pv < 0 || pv >= g.n() || !g.has_edge(v, pv)) return true;
  if (cfg[static_cast<std::size_t>(pv)] == v) return false;  // married
  // Proposal pending: hopeless iff it is not a legal upward proposal to an
  // unengaged vertex.
  return pv <= v || cfg[static_cast<std::size_t>(pv)] != kNull;
}

bool MatchingProtocol::enabled(const Graph& g, const ConfigView<State>& cfg,
                               VertexId v) const {
  return marriage_guard(g, cfg, v) || seduction_guard(g, cfg, v) ||
         abandonment_guard(g, cfg, v);
}

MatchingProtocol::State MatchingProtocol::apply(const Graph& g,
                                                const ConfigView<State>& cfg,
                                                VertexId v) const {
  if (marriage_guard(g, cfg, v)) return best_proposer(g, cfg, v);
  if (seduction_guard(g, cfg, v)) return best_candidate(g, cfg, v);
  if (abandonment_guard(g, cfg, v)) return kNull;
  throw std::logic_error("MatchingProtocol::apply on disabled vertex");
}

std::string_view MatchingProtocol::rule_name(const Graph& g,
                                             const ConfigView<State>& cfg,
                                             VertexId v) const {
  if (marriage_guard(g, cfg, v)) return "MARRIAGE";
  if (seduction_guard(g, cfg, v)) return "SEDUCTION";
  if (abandonment_guard(g, cfg, v)) return "ABANDONMENT";
  return "";
}

bool MatchingProtocol::legitimate(const Graph& g,
                                  const ConfigView<State>& cfg) const {
  for (VertexId v = 0; v < g.n(); ++v) {
    if (enabled(g, cfg, v)) return false;
  }
  return true;
}

std::vector<std::pair<VertexId, VertexId>> MatchingProtocol::matched_pairs(
    const Graph& g, const ConfigView<State>& cfg) const {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId v = 0; v < g.n(); ++v) {
    const State pv = cfg[static_cast<std::size_t>(v)];
    if (pv > v && g.has_edge(v, pv) && cfg[static_cast<std::size_t>(pv)] == v) {
      pairs.emplace_back(v, pv);
    }
  }
  return pairs;
}

bool MatchingProtocol::is_maximal_matching(const Graph& g,
                                           const ConfigView<State>& cfg) const {
  // Matching property is structural (mutual pointers are one-to-one).
  // Maximality: no edge between two unmarried vertices.
  for (VertexId u = 0; u < g.n(); ++u) {
    if (married(g, cfg, u)) continue;
    for (VertexId v : g.neighbors(u)) {
      if (u < v && !married(g, cfg, v)) return false;
    }
  }
  return true;
}

}  // namespace specstab
