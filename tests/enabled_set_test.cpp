// EnabledSet word-level bulk writes — the path the engine's dense steps
// use to publish guard verdicts 64 per mask word (fill_words), then
// decode them into the sorted vector (scatter_words).
//
// The contract under test: a rebuild from packed verdict words produces
// exactly the same set (membership bitmap and sorted vector) as assign()
// of the enabled vertices and as the incremental
// begin_update()/note()/commit() flip path, including at word
// boundaries and for the partial trailing word of a non-multiple-of-64
// vertex count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/enabled_set.hpp"
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

/// Single-shard dense rebuild of `set` from byte verdicts.
void rebuild_from_bytes(EnabledSet& set, const std::vector<std::uint8_t>& on) {
  const auto n = static_cast<VertexId>(on.size());
  const std::vector<std::uint8_t> verdicts = padded(on);
  std::vector<std::size_t> offsets;
  set.prepare_scatter({set.fill_words(0, n, verdicts.data())}, offsets);
  set.scatter_words(0, n, offsets[0]);
}

/// The enabled vertices of a verdict array, ascending.
std::vector<VertexId> enabled_of(const std::vector<std::uint8_t>& on) {
  std::vector<VertexId> out;
  for (std::size_t v = 0; v < on.size(); ++v) {
    if (on[v] != 0) out.push_back(static_cast<VertexId>(v));
  }
  return out;
}

TEST(EnabledSetTest, ShardedRebuildMatchesScalarAppend) {
  // The engine's three-phase dense rebuild (per-shard fill_words,
  // prefix-sum prepare_scatter, per-shard scatter_words) must reproduce
  // assign() of the enabled vertices exactly, for shard partitions whose
  // word-aligned boundaries leave unequal and empty shards, and sizes
  // with partial trailing words.
  for (const VertexId n : {1, 7, 63, 64, 65, 97, 129, 200, 513}) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 1337u);
    // Byte-per-vertex verdicts, zero-padded to a whole word as the
    // fused kernels guarantee.
    std::vector<std::uint8_t> verdicts(
        (static_cast<std::size_t>(n) + 63) / 64 * 64, 0);
    for (VertexId v = 0; v < n; ++v) {
      verdicts[static_cast<std::size_t>(v)] =
          static_cast<std::uint8_t>(rng() % 2);
    }

    EnabledSet scalar;
    scalar.reset(n);
    scalar.assign(enabled_of(std::vector<std::uint8_t>(
        verdicts.begin(), verdicts.begin() + n)));

    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}, std::size_t{8},
                                     std::size_t{16}}) {
      // The engine's word-aligned bounds: empty trailing shards allowed.
      std::vector<VertexId> bounds(shards + 1, 0);
      for (std::size_t k = 1; k < shards; ++k) {
        const auto raw = static_cast<VertexId>(
            (static_cast<std::size_t>(n) * k) / shards);
        bounds[k] = std::min<VertexId>(n, (raw + 63) / 64 * 64);
      }
      bounds[shards] = n;

      EnabledSet sharded;
      sharded.reset(n);
      std::vector<std::size_t> counts(shards, 0);
      for (std::size_t k = 0; k < shards; ++k) {
        counts[k] =
            sharded.fill_words(bounds[k], bounds[k + 1], verdicts.data());
      }
      std::vector<std::size_t> offsets;
      sharded.prepare_scatter(counts, offsets);
      for (std::size_t k = 0; k < shards; ++k) {
        sharded.scatter_words(bounds[k], bounds[k + 1], offsets[k]);
      }

      EXPECT_EQ(sharded.vertices(), scalar.vertices())
          << "n=" << n << " shards=" << shards;
      for (VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(sharded.view().contains(v), scalar.view().contains(v))
            << "n=" << n << " shards=" << shards << " v=" << v;
      }
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
  rebuild_from_bytes(set, on);
  EXPECT_EQ(set.vertices(), (std::vector<VertexId>{63, 64, 69}));
}

TEST(EnabledSetTest, RebuildAgreesWithIncrementalFlips) {
  // A word rebuild from the current verdict bytes must land on the same
  // set as the incremental note() flips that produced those verdicts —
  // the invariant the differential suite checks end-to-end through the
  // engines, here isolated to the set structure.
  constexpr VertexId kN = 150;
  std::mt19937_64 rng(42);
  std::vector<std::uint8_t> on(static_cast<std::size_t>(kN), 0);

  EnabledSet flipped;
  flipped.reset(kN);

  for (int round = 0; round < 50; ++round) {
    std::vector<VertexId> dirty;
    for (int k = 0; k < 12; ++k) {
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
    rebuild_from_bytes(rebuilt, on);
    ASSERT_EQ(rebuilt.vertices(), flipped.vertices()) << "round " << round;
  }
}

// --- commit() contract asserts (regression for the small-flip UB) ---
//
// The small-flip path formerly erased at lower_bound() without checking
// it hit the vertex: a removed_ entry absent from vertices_ (a desynced
// bitmap, e.g. from a buggy caller) erased the *next* vertex — or
// dereferenced end() — silently corrupting the set.  The asserts turn
// that breach into a loud failure in debug builds; these death tests pin
// them down.  NDEBUG builds compile the asserts out, so the tests only
// exist in debug (the CI debug-sanitize matrix leg runs them).
#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)

/// Desyncs the bitmap from the sorted vector the way a buggy caller
/// would: a word fill without its scatter rewrites the membership bits
/// of {2, 5, 7} to {2, 3, 7} and leaves the vector alone.
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
        set.note(3, false);  // bit set, vertex missing from the vector
        (void)set.commit();
      },
      "removed vertex not in the set");
}

TEST(EnabledSetDeathTest, CommitAssertsOnAddingPresentVertex) {
  EXPECT_DEATH(
      {
        EnabledSet set = desynced_set();
        set.begin_update();
        set.note(5, true);  // bit clear, vertex present in the vector
        (void)set.commit();
      },
      "added vertex already in the set");
}

#endif  // !NDEBUG && GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace specstab
