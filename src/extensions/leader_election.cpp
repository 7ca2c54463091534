#include "extensions/leader_election.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <unordered_set>

#include "graph/properties.hpp"

namespace specstab {

namespace {

std::vector<std::int32_t> default_ids(VertexId n) {
  std::vector<std::int32_t> ids(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) ids[static_cast<std::size_t>(v)] = v;
  return ids;
}

}  // namespace

LeaderElectionProtocol::LeaderElectionProtocol(const Graph& g)
    : LeaderElectionProtocol(g, default_ids(g.n())) {}

LeaderElectionProtocol::LeaderElectionProtocol(const Graph& g,
                                               std::vector<std::int32_t> ids)
    : ids_(std::move(ids)) {
  if (ids_.size() != static_cast<std::size_t>(g.n())) {
    throw std::invalid_argument("leader election: one identity per vertex");
  }
  const std::unordered_set<std::int32_t> unique(ids_.begin(), ids_.end());
  if (unique.size() != ids_.size()) {
    throw std::invalid_argument("leader election: identities must be distinct");
  }
  min_vertex_ = 0;
  for (VertexId v = 1; v < g.n(); ++v) {
    if (ids_[static_cast<std::size_t>(v)] <
        ids_[static_cast<std::size_t>(min_vertex_)]) {
      min_vertex_ = v;
    }
  }
  min_id_ = ids_[static_cast<std::size_t>(min_vertex_)];
}

LeaderState LeaderElectionProtocol::best_candidate(const Graph& g,
                                                   const ConfigView<State>& cfg,
                                                   VertexId v) const {
  // Own candidacy: (id_v, 0).
  LeaderState best{id_of(v), 0};
  const auto bound = static_cast<std::int32_t>(g.n());
  for (VertexId u : g.neighbors(v)) {
    const LeaderState su = cfg[static_cast<std::size_t>(u)];
    // Discard corrupted or overflowing distances: the candidate would sit
    // at distance dist_u + 1, which must stay below n in any real
    // configuration.  This is the ghost-flushing bound.
    if (su.dist < 0 || su.dist + 1 >= bound) continue;
    const LeaderState candidate{su.leader, su.dist + 1};
    if (candidate < best) best = candidate;
  }
  return best;
}

bool LeaderElectionProtocol::enabled(const Graph& g,
                                     const ConfigView<State>& cfg,
                                     VertexId v) const {
  return !(cfg[static_cast<std::size_t>(v)] == best_candidate(g, cfg, v));
}

LeaderState LeaderElectionProtocol::apply(const Graph& g,
                                          const ConfigView<State>& cfg,
                                          VertexId v) const {
  return best_candidate(g, cfg, v);
}

std::string_view LeaderElectionProtocol::rule_name(const Graph& g,
                                                   const ConfigView<State>& cfg,
                                                   VertexId v) const {
  if (!enabled(g, cfg, v)) return "";
  const LeaderState best = best_candidate(g, cfg, v);
  const LeaderState& cur = cfg[static_cast<std::size_t>(v)];
  if (best < cur) return "ADOPT";  // strictly better candidate available
  return "FLUSH";                  // current belief no longer supported
}

Config<LeaderState> LeaderElectionProtocol::elected_config(
    const Graph& g) const {
  const auto dist = bfs_distances(g, min_vertex_);
  Config<LeaderState> cfg(static_cast<std::size_t>(g.n()));
  for (VertexId v = 0; v < g.n(); ++v) {
    cfg[static_cast<std::size_t>(v)] = {
        min_id_, static_cast<std::int32_t>(dist[static_cast<std::size_t>(v)])};
  }
  return cfg;
}

bool LeaderElectionProtocol::legitimate(const Graph& g,
                                        const ConfigView<State>& cfg) const {
  const Config<State> elected = elected_config(g);
  if (cfg.size() != elected.size()) return false;
  for (std::size_t i = 0; i < elected.size(); ++i) {
    if (!(cfg[i] == elected[i])) return false;
  }
  return true;
}

bool LeaderElectionProtocol::ghost_free(const Graph& g,
                                        const ConfigView<State>& cfg) const {
  for (VertexId v = 0; v < g.n(); ++v) {
    if (cfg[static_cast<std::size_t>(v)].leader < min_id_) return false;
  }
  return true;
}

namespace {

/// Order-preserving packed key: (leader, dist) lexicographic order over
/// signed int32 pairs equals unsigned order of the concatenated
/// sign-flipped fields.
inline std::uint64_t lex_key(std::int32_t leader, std::int32_t dist) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(leader) ^
                                     0x80000000u)
          << 32) |
         (static_cast<std::uint32_t>(dist) ^ 0x80000000u);
}

/// Inverse of lex_key.
inline LeaderState lex_state(std::uint64_t key) {
  return {static_cast<std::int32_t>(static_cast<std::uint32_t>(key >> 32) ^
                                    0x80000000u),
          static_cast<std::int32_t>(static_cast<std::uint32_t>(key) ^
                                    0x80000000u)};
}

}  // namespace

SimdEval<LeaderElectionProtocol>::Context SimdEval<LeaderElectionProtocol>::
    make_context(const Graph& g, const LeaderElectionProtocol&) {
  return {g.offsets(), g.targets()};
}

void SimdEval<LeaderElectionProtocol>::enabled_bytes(
    const Context& ctx, const LeaderElectionProtocol& proto,
    const ConfigView<LeaderState>& cfg, std::uint8_t* out, LeaderState* next,
    VertexId begin, VertexId end) {
  const std::int64_t* off = ctx.offsets.data();
  const VertexId* tg = ctx.targets.data();
  const auto bound = static_cast<std::int32_t>(cfg.size());
  const LeaderState* s = cfg.column();
  for (VertexId v = begin; v < end; ++v) {
    std::uint64_t best = lex_key(proto.id_of(v), 0);
    for (std::int64_t j = off[v]; j < off[v + 1]; ++j) {
      const LeaderState su = s[static_cast<std::size_t>(tg[j])];
      // Same discard as best_candidate(): corrupted or overflowing
      // distances never become candidates (the ghost-flushing bound).
      const std::uint64_t ck = lex_key(su.leader, su.dist + 1);
      const bool live = su.dist >= 0 && su.dist + 1 < bound;
      best = live && ck < best ? ck : best;
    }
    const LeaderState sv = s[static_cast<std::size_t>(v)];
    out[v] = static_cast<std::uint8_t>(best != lex_key(sv.leader, sv.dist));
    next[v] = lex_state(best);  // disabled: already the best candidate
  }
}

Config<LeaderState> random_leader_config(const Graph& g, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto n = static_cast<std::int32_t>(g.n());
  std::uniform_int_distribution<std::int32_t> leader_dist(-n, 2 * n - 1);
  std::uniform_int_distribution<std::int32_t> dist_dist(-2, 2 * n - 1);
  Config<LeaderState> cfg(static_cast<std::size_t>(g.n()));
  for (auto& s : cfg) s = {leader_dist(rng), dist_dist(rng)};
  return cfg;
}

Config<LeaderState> ghost_leader_config(const Graph& g,
                                        const LeaderElectionProtocol& proto,
                                        std::int32_t claimed_dist) {
  Config<LeaderState> cfg(static_cast<std::size_t>(g.n()));
  const std::int32_t ghost = proto.min_id() - 1;
  for (auto& s : cfg) s = {ghost, claimed_dist};
  return cfg;
}

}  // namespace specstab
