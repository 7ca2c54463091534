// Engine support: the enabled-set container, the dirty-ball expander and
// the incremental-checker concepts.
//
// The production engine (parallel_engine.hpp) maintains the enabled set
// behind EnabledSet: 64-bit mask words plus a maintained count, with a
// sorted vertex vector kept only as a cache.  Sparse steps flip bits
// (note()/commit(), which also keeps a valid cache current); dense steps
// pack guard verdicts into the words, one shard at a time (fill_words()),
// and leave the cache to be rebuilt by whichever consumer next indexes
// it.  The IncrementalLegitimacy, HasBallUpdate and HasScoreRange
// concepts describe the checker objects the engine drives (see
// core/incremental_legitimacy.hpp for the concrete checkers): a dense
// step's verdict is one accept_total() of the shards' partial score
// totals for a HasScoreRange checker, and the checker's own on_update()
// for any other.
#ifndef SPECSTAB_SIM_ENABLED_SET_HPP
#define SPECSTAB_SIM_ENABLED_SET_HPP

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/enabled_view.hpp"
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
/// legitimate).  Its per-vertex score is 0 everywhere (HasScoreRange), so
/// a dense synchronous step of a checker-less run is a column swap-in,
/// like one under a score checker, and never lists the enabled set.
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
  template <class Cfg>
  [[nodiscard]] std::int64_t score_range(const Graph&, const Cfg&, VertexId,
                                         VertexId) const {
    return 0;
  }
  bool accept_total(std::int64_t) { return true; }
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

/// The enabled set.  Its 64-bit mask words (bit v % 64 of word v / 64
/// set iff v is enabled) and their maintained count are the set:
/// size(), empty() and view() (whose contains() tests one bit) read
/// nothing else.  The sorted vertex vector is a cache for consumers that
/// index the set (the sampling, central and locally-central daemons,
/// trace recording, observers, round snapshots, audits, per-target
/// installs): a dense rebuild invalidates it and vertices() rebuilds it
/// with one ctz walk over the words the first time it is asked for.
///
/// Sparse updates are staged per dirty vertex (note(), in ascending
/// vertex order, flips the bit and the count at once) and applied to a
/// valid cache by commit(): a handful of flips edit the sorted vector in
/// place (binary search + memmove), larger batches take one linear merge
/// pass.
class EnabledSet {
 public:
  void reset(VertexId n);

  /// Installs the full enabled set (sorted), e.g. from the initial scan.
  void assign(const std::vector<VertexId>& sorted_enabled);

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  /// The enabled vertices, ascending: the cache, rebuilt first if a
  /// dense rebuild invalidated it.
  [[nodiscard]] const std::vector<VertexId>& vertices() const {
    if (!listed_) list();
    return vertices_;
  }
  /// View over the words; it lists the set through vertices() only
  /// when its reader indexes it.
  [[nodiscard]] EnabledView view() const { return {*this, words_, count_}; }

  void begin_update() {
    added_.clear();
    removed_.clear();
  }
  /// Records the fresh guard verdict of a dirty vertex: flips its bit and
  /// the count when the verdict changed.  Must be called in ascending
  /// vertex order between begin_update() and commit().  Inline: a sparse
  /// step calls it once per vertex of its dirty ball.
  void note(VertexId v, bool enabled_now) {
    const auto i = static_cast<std::size_t>(v);
    std::uint64_t& word = words_[i / 64];
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if (((word & bit) != 0) == enabled_now) return;
    word ^= bit;
    if (enabled_now) {
      ++count_;
      added_.push_back(v);
    } else {
      --count_;
      removed_.push_back(v);
    }
  }
  /// Applies the staged flips to the cache when it is valid; returns
  /// whether the set changed.
  bool commit();
  /// The vertices note() turned off since begin_update(), ascending.
  [[nodiscard]] const std::vector<VertexId>& turned_off() const {
    return removed_;
  }

  // --- Sharded dense rebuild ---------------------------------------------
  //
  // When a step dirties most of the graph the flip staging above
  // degenerates, so the engine's dense path packs every shard's guard
  // verdicts straight into its own words.  Shard ranges must partition
  // [0, n) with every interior boundary a multiple of 64, so shards write
  // disjoint words and concurrent fill_words() calls are data-race-free.
  // One thread then publishes the sum of the shards' counts with
  // end_fill(); the set equals assign() of the enabled vertices.

  /// Packs verdicts[begin..end) into mask words (verdicts indexed by
  /// absolute vertex id, padded to a 64-byte multiple with zeros past the
  /// last vertex); returns the number of enabled vertices in the range.
  /// `begin` must be a multiple of 64 unless the range is empty; `end`
  /// must be the next shard's begin or n.
  std::size_t fill_words(VertexId begin, VertexId end,
                         const std::uint8_t* verdicts);

  /// Ends a dense rebuild: `count` is the sum of the shards' fill_words()
  /// results.  Invalidates the sorted cache.
  void end_fill(std::size_t count) {
    count_ = count;
    listed_ = false;
  }

 private:
  /// Rebuilds the sorted cache from the words.
  void list() const;

  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
  // The sorted cache: logically part of the words, so vertices() may
  // rebuild it through a const reference.
  mutable std::vector<VertexId> vertices_;
  mutable bool listed_ = true;
  std::vector<VertexId> scratch_, added_, removed_;
};

}  // namespace specstab

#endif  // SPECSTAB_SIM_ENABLED_SET_HPP
