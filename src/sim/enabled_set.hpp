// Engine support: the enabled-set container, the dirty-ball expander and
// the incremental-checker concepts.
//
// The production engine (parallel_engine.hpp) maintains the enabled set
// behind EnabledSet (a flat membership bitmap plus a sorted vector).
// Sparse steps edit it by staged per-vertex flips (note()/commit());
// dense steps rebuild it from packed guard-verdict words, one shard at a
// time (fill_words()/scatter_words()).  The IncrementalLegitimacy,
// HasBallUpdate and HasScoreRange concepts describe the checker objects
// the engine drives (see core/incremental_legitimacy.hpp for the
// concrete checkers): a dense step's verdict is one accept_total() of
// the shards' partial score totals for a HasScoreRange checker, and the
// checker's own on_update() for any other.
#ifndef SPECSTAB_SIM_ENABLED_SET_HPP
#define SPECSTAB_SIM_ENABLED_SET_HPP

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/daemon.hpp"
#include "sim/types.hpp"

namespace specstab {

/// Incremental legitimacy checker: a stateful object mirroring one
/// legitimacy predicate.  init() performs the from-scratch evaluation and
/// (re)builds the internal caches; on_update() is called once per
/// subsequent configuration with the sorted list of vertices whose state
/// changed and must return the same verdict a from-scratch evaluation
/// would; full() is the stateless from-scratch oracle used by the
/// reference engine.  All three return the predicate's
/// verdict so a wrapper (e.g. ClosureCounting) can observe the legitimacy
/// sequence in configuration order regardless of the engine.
template <class C, class State>
concept IncrementalLegitimacy =
    requires(C& c, const Graph& g, ConfigView<State> cfg,
             const std::vector<VertexId>& touched) {
      { c.init(g, cfg) } -> std::same_as<bool>;
      { c.on_update(g, cfg, touched) } -> std::same_as<bool>;
      { c.full(g, cfg) } -> std::same_as<bool>;
    };

/// Optional checker extension: a checker whose rescore set is the
/// radius-update_radius() ball around the touched vertices can accept an
/// already-expanded ball (sorted unique closed ball of exactly that
/// radius) instead of re-expanding it.  The engine uses this to share
/// its guard-dirty ball with the checker when the radii coincide,
/// halving per-action expansion work.
template <class C, class State>
concept HasBallUpdate =
    requires(C& c, const Graph& g, ConfigView<State> cfg,
             const std::vector<VertexId>& ball) {
      { std::as_const(c).update_radius() } -> std::convertible_to<VertexId>;
      { c.on_update_ball(g, cfg, ball) } -> std::same_as<bool>;
    };

/// Optional checker extension: a checker whose verdict is a function of
/// a sum of per-vertex scores exposes score_range(), the sum over
/// [lo, hi) of a configuration (const, so shards call it concurrently),
/// and accept_total(), the verdict of a total computed elsewhere.  The
/// engine's dense steps sum each shard's range inside the rescan and
/// hand the shard-ordered total to accept_total().
template <class C, class State>
concept HasScoreRange =
    requires(C& c, const Graph& g, ConfigView<State> cfg, VertexId v) {
      {
        std::as_const(c).score_range(g, cfg, v, v)
      } -> std::same_as<std::int64_t>;
      { c.accept_total(std::int64_t{}) } -> std::same_as<bool>;
    };

/// Trivial checker for runs without a legitimacy predicate (mirrors the
/// reference engine's nullptr-predicate behaviour: every configuration is
/// legitimate).
struct AlwaysLegitimate {
  template <class Cfg>
  bool init(const Graph&, const Cfg&) {
    return true;
  }
  template <class Cfg>
  bool on_update(const Graph&, const Cfg&, const std::vector<VertexId>&) {
    return true;
  }
  template <class Cfg>
  bool full(const Graph&, const Cfg&) {
    return true;
  }
};

/// Whether an action touching `touched_count` vertices dirties enough of
/// the graph that a plain ordered rescan beats radius-`radius` ball
/// expansion.  Shared by the engine (guard re-tests) and the score
/// checkers so both fall back in lockstep.  The estimate is
/// degree-aware: each hop multiplies the frontier by the average degree,
/// and expansion bookkeeping (version stamps, the final sort, scattered
/// access) costs roughly twice an ordered scan per vertex — so on dense
/// random graphs the fallback triggers much earlier than on rings.
[[nodiscard]] inline bool is_dense_update(std::int64_t touched_count,
                                          VertexId radius, const Graph& g) {
  const auto n = static_cast<std::int64_t>(g.n());
  if (n == 0) return true;
  const std::int64_t avg_deg =
      std::max<std::int64_t>(1, 2 * static_cast<std::int64_t>(g.m()) / n);
  std::int64_t ball = touched_count;
  for (VertexId hop = 0; hop < radius; ++hop) {
    if (2 * ball >= n) return true;  // also caps growth before overflow
    ball *= 1 + avg_deg;
  }
  return 2 * ball >= n;
}

/// Sorted-unique closed ball B(seeds, radius), with O(1) amortized
/// clearing via version stamps so per-action expansion allocates nothing
/// in steady state.
class NeighborhoodExpander {
 public:
  explicit NeighborhoodExpander(VertexId n)
      : stamp_(static_cast<std::size_t>(n), 0) {}

  /// All vertices within `radius` hops of any seed (including the seeds
  /// themselves), sorted ascending, each vertex once.  The returned
  /// reference is invalidated by the next expand() call.
  const std::vector<VertexId>& expand(const Graph& g,
                                      const std::vector<VertexId>& seeds,
                                      VertexId radius);

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t current_ = 0;
  std::vector<VertexId> out_, frontier_, next_;
};

/// The enabled set as a flat membership bitmap plus a sorted vector.
/// Updates are staged per dirty vertex (note(), in ascending vertex
/// order) and applied by commit(): a handful of flips edit the sorted
/// vector in place (binary search + memmove), larger batches take one
/// linear merge pass.
class EnabledSet {
 public:
  void reset(VertexId n);

  /// Installs the full enabled set (sorted), e.g. from the initial scan.
  void assign(const std::vector<VertexId>& sorted_enabled);

  [[nodiscard]] bool empty() const { return vertices_.empty(); }
  [[nodiscard]] const std::vector<VertexId>& vertices() const {
    return vertices_;
  }
  /// Daemon-facing view: the sorted vector plus the membership bitmap,
  /// which gives cursor daemons O(1) contains() (see EnabledView).
  [[nodiscard]] EnabledView view() const { return {vertices_, bits_}; }

  void begin_update() {
    added_.clear();
    removed_.clear();
  }
  /// Records the fresh guard verdict of a dirty vertex.  Must be called
  /// in ascending vertex order between begin_update() and commit().
  /// Inline: a sparse step calls it once per vertex of its dirty ball.
  void note(VertexId v, bool enabled_now) {
    char& bit = bits_[static_cast<std::size_t>(v)];
    if ((bit != 0) == enabled_now) return;
    bit = enabled_now ? 1 : 0;
    (enabled_now ? added_ : removed_).push_back(v);
  }
  /// Applies the staged flips; returns whether the vector changed.
  bool commit();

  // --- Sharded dense rebuild ---------------------------------------------
  //
  // When a step dirties most of the graph the flip staging above
  // degenerates (per-vertex compare-and-stage plus a full merge), so the
  // engine's dense path rebuilds the whole set from per-shard guard
  // verdicts with no sequential concatenation.  Shard ranges must
  // partition [0, n) with every interior boundary a multiple of 64, so
  // shards touch disjoint mask words and disjoint bitmap bytes:
  //
  //   1. each shard calls fill_words(begin, end, verdicts) over its own
  //      range (verdicts indexed by absolute vertex id, padded to a
  //      64-byte multiple with zeros past the last vertex) and keeps the
  //      returned enabled count;
  //   2. one thread calls prepare_scatter(counts, offsets) — a prefix
  //      sum over the shard counts plus the sorted-vector resize (within
  //      the reset() reservation, so allocation-free);
  //   3. each shard calls scatter_words(begin, end, offsets[k]) to
  //      decode its words into its slice of the sorted vector.
  //
  // Concurrent fill/scatter calls on distinct ranges are data-race-free
  // by construction (disjoint writes, no size changes); the resulting
  // bitmap and sorted vector are identical to assign() of the enabled
  // vertices in ascending order.

  /// Packs verdicts[begin..end) into mask words and the membership
  /// bitmap; returns the number of enabled vertices in the range.
  /// `begin` must be a multiple of 64 unless the range is empty; `end`
  /// must be the next shard's begin or n.
  std::size_t fill_words(VertexId begin, VertexId end,
                         const std::uint8_t* verdicts);

  /// Prefix-sums the per-shard counts into `offsets` (size counts.size()
  /// + 1) and sizes the sorted vector for scatter_words().
  void prepare_scatter(const std::vector<std::size_t>& counts,
                       std::vector<std::size_t>& offsets);

  /// Decodes the mask words of [begin, end) into the sorted vector
  /// starting at `offset` (the shard's prefix sum from prepare_scatter).
  void scatter_words(VertexId begin, VertexId end, std::size_t offset);

 private:
  std::vector<char> bits_;
  std::vector<VertexId> vertices_, scratch_, added_, removed_;
  std::vector<std::uint64_t> words_;  ///< sharded-rebuild mask words
};

}  // namespace specstab

#endif  // SPECSTAB_SIM_ENABLED_SET_HPP
