// Self-stabilizing leader election — the paper's Section 6 programme
// ("apply our new notion of speculative stabilization to other classical
// problems of distributed computing"), problem #1.
//
// Each vertex v holds a pair (leader_v, dist_v) and repeatedly adopts the
// lexicographically smallest candidate among its own (id_v, 0) and every
// neighbour's (leader_u, dist_u + 1) with dist_u + 1 < n.  The distance
// bound is what makes the protocol *self*-stabilizing: a transient fault
// can plant a ghost leader — an identity smaller than every real one —
// but a ghost has no vertex announcing it at distance 0, so the minimal
// distance at which it is claimed grows by one per round until it hits
// the bound and vanishes (< n rounds); the true minimal identity then
// floods in eccentricity(argmin) more rounds.  The stabilized
// configuration is terminal (the protocol is *silent*): every vertex
// knows the minimal identity and its exact BFS distance to it.
//
// Speculative profile measured by bench_ext_leader_election: ghost flush
// plus flood is Theta(n) steps under the synchronous daemon, while
// central daemons replay the min+1-style quadratic schedules — the same
// (ud, sd) separation shape as the paper's Section 3 examples.
//
// Identities are an arbitrary vector of distinct integers (default: the
// graph's own 0..n-1), so the election is genuine — the winner is
// whichever vertex carries the minimal identity, not a hard-wired root.
#ifndef SPECSTAB_EXTENSIONS_LEADER_ELECTION_HPP
#define SPECSTAB_EXTENSIONS_LEADER_ELECTION_HPP

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/simd_eval.hpp"
#include "sim/types.hpp"

namespace specstab {

/// Leader-election vertex state: the currently believed leader identity
/// and the believed distance to it.  Transient faults may set both fields
/// to arbitrary values; the protocol tolerates any contents.
struct LeaderState {
  std::int32_t leader = 0;
  std::int32_t dist = 0;

  friend bool operator==(const LeaderState&, const LeaderState&) = default;

  /// Lexicographic candidate order: smaller leader wins, ties broken by
  /// smaller distance.
  friend bool operator<(const LeaderState& a, const LeaderState& b) {
    return a.leader != b.leader ? a.leader < b.leader : a.dist < b.dist;
  }
};

class LeaderElectionProtocol {
 public:
  using State = LeaderState;

  /// Identities default to id_v = v.
  explicit LeaderElectionProtocol(const Graph& g);

  /// Arbitrary distinct identities (throws std::invalid_argument on size
  /// mismatch or duplicates).
  LeaderElectionProtocol(const Graph& g, std::vector<std::int32_t> ids);

  [[nodiscard]] std::int32_t id_of(VertexId v) const {
    return ids_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] std::int32_t min_id() const noexcept { return min_id_; }
  [[nodiscard]] VertexId min_id_vertex() const noexcept {
    return min_vertex_;
  }

  // --- ProtocolConcept ---

  [[nodiscard]] bool enabled(const Graph& g, const ConfigView<State>& cfg,
                             VertexId v) const;
  [[nodiscard]] State apply(const Graph& g, const ConfigView<State>& cfg,
                            VertexId v) const;
  [[nodiscard]] std::string_view rule_name(const Graph& g,
                                           const ConfigView<State>& cfg,
                                           VertexId v) const;

  // --- Specification ---

  /// The unique terminal configuration: leader_v = min_id and dist_v =
  /// dist(g, v, argmin) for every v.
  [[nodiscard]] Config<State> elected_config(const Graph& g) const;

  /// Legitimacy: cfg equals elected_config (the protocol is silent, so
  /// this is also exactly the terminal predicate).
  [[nodiscard]] bool legitimate(const Graph& g,
                                const ConfigView<State>& cfg) const;

  /// Safety slice used mid-execution: no vertex believes in a leader
  /// identity smaller than the real minimum (ghosts flushed).
  [[nodiscard]] bool ghost_free(const Graph& g,
                                const ConfigView<State>& cfg) const;

 private:
  /// The best candidate available to v in cfg (the unique successor
  /// state).
  [[nodiscard]] State best_candidate(const Graph& g,
                                     const ConfigView<State>& cfg,
                                     VertexId v) const;

  std::vector<std::int32_t> ids_;
  std::int32_t min_id_ = 0;
  VertexId min_vertex_ = 0;
};

/// Guard kernel over the state column.  The lexicographic candidate
/// order (leader, then dist) is folded into one order-preserving unsigned
/// 64-bit key — sign-flip each int32 field and concatenate — so the best
/// candidate is a plain min-reduction over packed keys of the neighbours'
/// states, and the successor is that key decoded.
template <>
struct SimdEval<LeaderElectionProtocol> {
  /// Views of the graph's CSR arrays, so it must not outlive the graph.
  struct Context {
    std::span<const std::int64_t> offsets;  ///< g.offsets()
    std::span<const VertexId> targets;      ///< g.targets()
  };
  static Context make_context(const Graph& g, const LeaderElectionProtocol&);
  static void enabled_bytes(const Context& ctx,
                            const LeaderElectionProtocol& proto,
                            const ConfigView<LeaderState>& cfg,
                            std::uint8_t* out, LeaderState* next,
                            VertexId begin, VertexId end);
};

/// Uniformly random leader-election configuration (fields in
/// [-n, 2n) x [-2, 2n)) — the arbitrary post-fault state space, including
/// ghost leaders below every real identity.
[[nodiscard]] Config<LeaderState> random_leader_config(const Graph& g,
                                                       std::uint64_t seed);

/// The nastiest transient fault: every vertex believes a common ghost
/// leader (smaller than all real identities) at distance `claimed_dist`.
[[nodiscard]] Config<LeaderState> ghost_leader_config(
    const Graph& g, const LeaderElectionProtocol& proto,
    std::int32_t claimed_dist);

}  // namespace specstab

#endif  // SPECSTAB_EXTENSIONS_LEADER_ELECTION_HPP
