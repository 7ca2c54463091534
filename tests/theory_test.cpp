// Tests for the closed-form paper bounds.
#include "core/theory.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "graph/chordless.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"

namespace specstab {
namespace {

TEST(TheoryTest, SsmeSyncBoundIsCeilHalfDiameter) {
  EXPECT_EQ(ssme_sync_bound(0), 0);
  EXPECT_EQ(ssme_sync_bound(1), 1);
  EXPECT_EQ(ssme_sync_bound(2), 1);
  EXPECT_EQ(ssme_sync_bound(3), 2);
  EXPECT_EQ(ssme_sync_bound(8), 4);
  EXPECT_EQ(ssme_sync_bound(9), 5);
}

TEST(TheoryTest, LowerBoundEqualsUpperBound) {
  // Theorem 4 meets Theorem 2: SSME is optimal.
  for (VertexId d = 0; d <= 20; ++d) {
    EXPECT_EQ(mutex_sync_lower_bound(d), ssme_sync_bound(d));
  }
}

TEST(TheoryTest, SsmeUdBoundFormula) {
  // 2 diam n^3 + (n+1) n^2 + (n - 2 diam) n with alpha = n.
  EXPECT_EQ(ssme_ud_bound(4, 2), 2 * 2 * 64 + 5 * 16 + (4 - 4) * 4);
  EXPECT_EQ(ssme_ud_bound(10, 5), 2 * 5 * 1000 + 11 * 100 + 0);
}

TEST(TheoryTest, SsmeUdBoundUnchangedWhereInt64Holds) {
  const auto check = [](VertexId vn, VertexId vd) {
    const std::int64_t n = vn;
    const std::int64_t d = vd;
    // The bound regrouped: n^3 (2 diam + 1) + 2n (n - diam).
    const std::int64_t ref = (2 * d + 1) * n * n * n + 2 * n * (n - d);
    EXPECT_EQ(ssme_ud_bound(vn, vd), ref) << n << " " << d;
    EXPECT_EQ(ssme_ud_step_cap(vn, vd), 2 * ref) << n << " " << d;
  };
  check(4, 2);
  check(100, 99);
  check(128, 64);
  check(10000, 5000);
  check(40000, 20000);
}

TEST(TheoryTest, SsmeUdBoundSaturatesInsteadOfWrapping) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  // Torus 1000 x 1000: 2 diam n^3 alone is 2 * 10^21, past INT64_MAX.
  EXPECT_EQ(ssme_ud_bound(1000000, 1000), kMax);
  EXPECT_EQ(ssme_ud_step_cap(1000000, 1000), kMax);
  // n = 10^6, diam = 1 and 2: the bound is n^3 (2 diam + 1) + 2n(n - diam).
  EXPECT_EQ(ssme_ud_bound(1000000, 1), 3000001999998000000);
  EXPECT_EQ(ssme_ud_step_cap(1000000, 1), 6000003999996000000);
  EXPECT_EQ(ssme_ud_bound(1000000, 2), 5000001999996000000);
  EXPECT_EQ(ssme_ud_step_cap(1000000, 2), kMax);  // only the double wraps
  constexpr VertexId kMaxVertex = std::numeric_limits<VertexId>::max();
  EXPECT_EQ(ssme_ud_bound(kMaxVertex, kMaxVertex - 1), kMax);
  EXPECT_EQ(ssme_ud_step_cap(kMaxVertex, kMaxVertex - 1), kMax);
}

TEST(TheoryTest, SsmeUdBoundDominatesSyncBound) {
  for (VertexId n : {2, 5, 10, 50}) {
    for (VertexId d = 1; d < n; ++d) {
      EXPECT_GT(ssme_ud_bound(n, d), ssme_sync_bound(d));
    }
  }
}

TEST(TheoryTest, ClockSizeFormula) {
  EXPECT_EQ(ssme_clock_size(1, 0), 3);
  EXPECT_EQ(ssme_clock_size(5, 3), 9 * 4 + 2);
  // K > n (the cyclo(g) <= n slack).
  for (VertexId n : {2, 7, 33}) {
    for (VertexId d = 0; d < n; ++d) {
      EXPECT_GT(ssme_clock_size(n, d), n);
    }
  }
}

TEST(TheoryTest, UnisonSyncBoundComposition) {
  // alpha + lcp + diam on a concrete instance: path(6), alpha = 6.
  const Graph g = make_path(6);
  EXPECT_EQ(unison_sync_bound(6, longest_chordless_path(g), diameter(g)),
            6 + 5 + 5);
}

TEST(TheoryTest, SectionThreeExampleBounds) {
  EXPECT_EQ(dijkstra_sync_bound(12), 12);
  EXPECT_EQ(dijkstra_ud_theta(12), 144);
  EXPECT_EQ(min_plus_one_sync_theta(7), 8);
  EXPECT_EQ(min_plus_one_ud_theta(9), 81);
  EXPECT_EQ(matching_sync_bound(10), 21);
  EXPECT_EQ(matching_ud_bound(10, 15), 70);
}

TEST(TheoryTest, SpeculationGapGrowsWithN) {
  // The ud/sd separation for SSME on rings: Theta(diam n^3) vs
  // Theta(diam): the ratio must grow.
  double prev_ratio = 0.0;
  for (VertexId n = 4; n <= 64; n *= 2) {
    const VertexId diam = n / 2;
    const double ratio =
        static_cast<double>(ssme_ud_bound(n, diam)) /
        static_cast<double>(ssme_sync_bound(diam));
    EXPECT_GT(ratio, prev_ratio);
    prev_ratio = ratio;
  }
}

}  // namespace
}  // namespace specstab
