// EnabledSet as the engine keeps it: 64-bit mask words plus a maintained
// count are the set, and the sorted vertex vector is a cache.  Dense
// steps pack guard verdicts 64 per word, one shard at a time
// (fill_words(), then end_fill() with the summed counts), which
// invalidates the cache; sparse steps flip bits (note()/commit()), which
// keeps a valid cache current in place.
//
// The contract under test: whatever mix of word fills and flips built
// the set, it is exactly assign() of the same vertices — size(),
// contains() at every vertex and the rebuilt cache — at word
// boundaries, for the partial trailing word of a non-multiple-of-64
// vertex count, and over the engine's word-aligned shard partitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "sim/enabled_set.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/types.hpp"

namespace specstab {
namespace {

/// Byte-per-vertex verdicts zero-padded to a whole word, as the engine's
/// guard kernels leave them.
std::vector<std::uint8_t> padded(const std::vector<std::uint8_t>& on) {
  std::vector<std::uint8_t> out((on.size() + 63) / 64 * 64, 0);
  std::copy(on.begin(), on.end(), out.begin());
  return out;
}

/// Dense rebuild of `set` from byte verdicts over the given shard bounds:
/// one fill_words() per shard, then end_fill() of the summed counts.
void fill_from_bytes(EnabledSet& set, const std::vector<std::uint8_t>& on,
                     const std::vector<VertexId>& bounds) {
  const std::vector<std::uint8_t> verdicts = padded(on);
  std::size_t count = 0;
  for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
    count += set.fill_words(bounds[k], bounds[k + 1], verdicts.data());
  }
  set.end_fill(count);
}

/// Single-shard dense rebuild.
void fill_from_bytes(EnabledSet& set, const std::vector<std::uint8_t>& on) {
  fill_from_bytes(set, on, {0, static_cast<VertexId>(on.size())});
}

/// The enabled vertices of a verdict array, ascending.
std::vector<VertexId> enabled_of(const std::vector<std::uint8_t>& on) {
  std::vector<VertexId> out;
  for (std::size_t v = 0; v < on.size(); ++v) {
    if (on[v] != 0) out.push_back(static_cast<VertexId>(v));
  }
  return out;
}

/// Asserts `set` is the set `want` over [0, n): size, membership at every
/// vertex (through its view) and the cache, which is checked last so the
/// earlier reads run on whatever cache state the caller left.
void expect_set(const EnabledSet& set, const std::vector<VertexId>& want,
                VertexId n, const std::string& ctx) {
  EXPECT_EQ(set.size(), want.size()) << ctx;
  EXPECT_EQ(set.empty(), want.empty()) << ctx;
  EXPECT_EQ(set.view().size(), want.size()) << ctx;
  for (VertexId v = 0; v < n; ++v) {
    const bool in = std::binary_search(want.begin(), want.end(), v);
    ASSERT_EQ(set.view().contains(v), in) << ctx << " v=" << v;
  }
  EXPECT_EQ(set.vertices(), want) << ctx;
  EXPECT_EQ(set.view().vertices(), want) << ctx;
}

std::vector<std::uint8_t> random_verdicts(VertexId n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> on(static_cast<std::size_t>(n), 0);
  for (auto& b : on) b = static_cast<std::uint8_t>(rng() % 2);
  return on;
}

TEST(EnabledSetTest, ShardedRebuildMatchesScalarAppend) {
  // The engine's dense rebuild (per-shard fill_words() over its
  // word-aligned bounds, then end_fill() of the summed counts) must
  // equal assign() of the enabled vertices, for partitions whose bounds
  // leave unequal and empty shards, and sizes with partial trailing
  // words.
  for (const VertexId n : {1, 7, 63, 64, 65, 97, 129, 130, 200, 513}) {
    const std::vector<std::uint8_t> on =
        random_verdicts(n, static_cast<std::uint64_t>(n) * 1337u);
    const std::vector<VertexId> want = enabled_of(on);

    EnabledSet oracle;
    oracle.reset(n);
    oracle.assign(want);
    expect_set(oracle, want, n, "assign n=" + std::to_string(n));

    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{8},
          std::size_t{16}}) {
      const std::string ctx =
          "n=" + std::to_string(n) + " shards=" + std::to_string(shards);
      EnabledSet sharded;
      sharded.reset(n);
      fill_from_bytes(sharded, on, parallel_detail::shard_bounds(n, shards));
      expect_set(sharded, want, n, ctx);
      // A second fill over a set whose cache is valid must invalidate it.
      std::vector<std::uint8_t> flipped = on;
      for (auto& b : flipped) b ^= 1u;
      fill_from_bytes(sharded, flipped,
                      parallel_detail::shard_bounds(n, shards));
      expect_set(sharded, enabled_of(flipped), n, ctx + " refill");
      // Every vertex enabled, as on most synchronous steps: the listing
      // writes each full word as a run of 64 ids.
      const std::vector<std::uint8_t> all(on.size(), 1);
      fill_from_bytes(sharded, all, parallel_detail::shard_bounds(n, shards));
      expect_set(sharded, enabled_of(all), n, ctx + " all enabled");
    }
  }
}

TEST(EnabledSetTest, PartialTrailingWordIgnoresPaddingBits) {
  // 70 vertices: the second word covers bits 64..69 only.  The zero
  // padding never sets a bit past the last vertex, and membership stays
  // within range.
  constexpr VertexId kN = 70;
  std::vector<std::uint8_t> on(static_cast<std::size_t>(kN), 0);
  on[63] = 1;
  on[64] = 1;
  on[69] = 1;
  EnabledSet set;
  set.reset(kN);
  fill_from_bytes(set, on);
  expect_set(set, {63, 64, 69}, kN, "n=70");
  // Past the last vertex, the view's membership test is false, not a
  // read beyond the words.
  EXPECT_FALSE(set.view().contains(128));
}

TEST(EnabledSetTest, RebuildAgreesWithIncrementalFlips) {
  // A word rebuild from the current verdict bytes must land on the same
  // set as the incremental note() flips that produced those verdicts —
  // the invariant the differential suite checks end-to-end through the
  // engines, here isolated to the set structure.  Every third round
  // flips enough vertices to take commit()'s merge pass instead of its
  // in-place edits.
  constexpr VertexId kN = 150;
  std::mt19937_64 rng(42);
  std::vector<std::uint8_t> on(static_cast<std::size_t>(kN), 0);

  EnabledSet flipped;
  flipped.reset(kN);

  for (int round = 0; round < 50; ++round) {
    std::vector<VertexId> dirty;
    for (int k = 0; k < (round % 3 == 0 ? 40 : 5); ++k) {
      const auto v = static_cast<VertexId>(rng() % kN);
      on[static_cast<std::size_t>(v)] ^= 1u;
      dirty.push_back(v);
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    flipped.begin_update();
    for (const VertexId v : dirty) {
      flipped.note(v, on[static_cast<std::size_t>(v)] != 0);
    }
    flipped.commit();

    EnabledSet rebuilt;
    rebuilt.reset(kN);
    fill_from_bytes(rebuilt, on);
    const std::string ctx = "round " + std::to_string(round);
    expect_set(flipped, enabled_of(on), kN, ctx + " flipped");
    expect_set(rebuilt, enabled_of(on), kN, ctx + " rebuilt");
  }
}

TEST(EnabledSetTest, SparseFlipsAfterDenseFillKeepWordsAndCacheInStep) {
  // The engine's mixed runs: a dense fill invalidates the cache, sparse
  // steps flip bits, and some consumer reads the cache in between or
  // not.  Every state must equal assign() of the same vertices, and the
  // turned-off list must name exactly the bits note() cleared.
  for (const VertexId n : {1, 63, 64, 65, 130}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}, std::size_t{8}}) {
      const auto bounds = parallel_detail::shard_bounds(n, shards);
      std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 31u + shards);
      std::vector<std::uint8_t> on = random_verdicts(n, rng());
      EnabledSet set;
      set.reset(n);
      for (int round = 0; round < 12; ++round) {
        const std::string ctx = "n=" + std::to_string(n) +
                                " shards=" + std::to_string(shards) +
                                " round=" + std::to_string(round);
        if (round % 4 == 0) {
          on = random_verdicts(n, rng());
          fill_from_bytes(set, on, bounds);
        } else {
          if (round % 4 == 2) (void)set.vertices();  // a consumer lists it
          std::vector<VertexId> dirty;
          for (int k = 0; k < 3; ++k) {
            dirty.push_back(static_cast<VertexId>(rng() % n));
          }
          std::sort(dirty.begin(), dirty.end());
          dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
          std::vector<VertexId> want_off;
          set.begin_update();
          for (const VertexId v : dirty) {
            auto& b = on[static_cast<std::size_t>(v)];
            b ^= 1u;
            if (b == 0) want_off.push_back(v);
            set.note(v, b != 0);
          }
          set.commit();
          EXPECT_EQ(set.turned_off(), want_off) << ctx;
        }
        expect_set(set, enabled_of(on), n, ctx);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// --- commit() contract asserts (regression for the small-flip UB) ---
//
// The small-flip path formerly erased at lower_bound() without checking
// it hit the vertex: a removed_ entry absent from the cache (words
// desynced from it, e.g. by a buggy caller) erased the *next* vertex —
// or dereferenced end() — silently corrupting the set.  The asserts turn
// that breach into a loud failure in debug builds; these death tests pin
// them down.  NDEBUG builds compile the asserts out, so the tests only
// exist in debug (the CI debug-sanitize matrix leg runs them).
#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)

/// Desyncs the words from the cache the way a buggy caller would: a word
/// fill without its end_fill() rewrites the words of {2, 5, 7} to
/// {2, 3, 7} and leaves the cache marked valid.
EnabledSet desynced_set() {
  EnabledSet set;
  set.reset(10);
  set.assign({2, 5, 7});
  std::vector<std::uint8_t> on(10, 0);
  on[2] = on[3] = on[7] = 1;
  const std::vector<std::uint8_t> verdicts = padded(on);
  (void)set.fill_words(0, 10, verdicts.data());
  return set;
}

TEST(EnabledSetDeathTest, CommitAssertsOnRemovingAbsentVertex) {
  EXPECT_DEATH(
      {
        EnabledSet set = desynced_set();
        set.begin_update();
        set.note(3, false);  // bit set, vertex missing from the cache
        (void)set.commit();
      },
      "removed vertex not in the set");
}

TEST(EnabledSetDeathTest, CommitAssertsOnAddingPresentVertex) {
  EXPECT_DEATH(
      {
        EnabledSet set = desynced_set();
        set.begin_update();
        set.note(5, true);  // bit clear, vertex present in the cache
        (void)set.commit();
      },
      "added vertex already in the set");
}

#endif  // !NDEBUG && GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace specstab
