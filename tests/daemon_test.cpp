// Unit tests for the daemon library (Definition 1 adversaries).
#include "sim/daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "graph/generators.hpp"

namespace specstab {
namespace {

const Graph& ring6() {
  static const Graph g = make_ring(6);
  return g;
}

std::vector<VertexId> all6() { return {0, 1, 2, 3, 4, 5}; }

TEST(DaemonTest, SynchronousSelectsEverything) {
  SynchronousDaemon d;
  EXPECT_EQ(d.select(ring6(), all6(), 0), all6());
  EXPECT_EQ(d.select(ring6(), {2, 4}, 7), (std::vector<VertexId>{2, 4}));
}

TEST(DaemonTest, RoundRobinCyclesFairly) {
  CentralRoundRobinDaemon d;
  std::vector<VertexId> picked;
  for (StepIndex i = 0; i < 6; ++i) {
    const auto sel = d.select(ring6(), all6(), i);
    ASSERT_EQ(sel.size(), 1u);
    picked.push_back(sel[0]);
  }
  EXPECT_EQ(picked, all6());  // visits everyone once per cycle
}

TEST(DaemonTest, RoundRobinSkipsDisabled) {
  CentralRoundRobinDaemon d;
  EXPECT_EQ(d.select(ring6(), {3, 5}, 0), (std::vector<VertexId>{3}));
  EXPECT_EQ(d.select(ring6(), {3, 5}, 1), (std::vector<VertexId>{5}));
  // Wraps around past n-1.
  EXPECT_EQ(d.select(ring6(), {3, 5}, 2), (std::vector<VertexId>{3}));
}

TEST(DaemonTest, RoundRobinResetRestoresCursor) {
  CentralRoundRobinDaemon d;
  (void)d.select(ring6(), all6(), 0);
  (void)d.select(ring6(), all6(), 1);
  d.reset();
  EXPECT_EQ(d.select(ring6(), all6(), 0), (std::vector<VertexId>{0}));
}

TEST(DaemonTest, CentralRandomPicksOneEnabled) {
  CentralRandomDaemon d(42);
  std::set<VertexId> seen;
  for (StepIndex i = 0; i < 100; ++i) {
    const auto sel = d.select(ring6(), {1, 3, 5}, i);
    ASSERT_EQ(sel.size(), 1u);
    EXPECT_TRUE(sel[0] == 1 || sel[0] == 3 || sel[0] == 5);
    seen.insert(sel[0]);
  }
  EXPECT_EQ(seen.size(), 3u);  // eventually picks each
}

TEST(DaemonTest, CentralRandomIsReproducibleAfterReset) {
  CentralRandomDaemon d(7);
  std::vector<VertexId> first;
  for (StepIndex i = 0; i < 10; ++i) first.push_back(d.select(ring6(), all6(), i)[0]);
  d.reset();
  for (StepIndex i = 0; i < 10; ++i) {
    EXPECT_EQ(d.select(ring6(), all6(), i)[0], first[static_cast<std::size_t>(i)]);
  }
}

TEST(DaemonTest, MinAndMaxId) {
  CentralMinIdDaemon lo;
  CentralMaxIdDaemon hi;
  EXPECT_EQ(lo.select(ring6(), {2, 3, 5}, 0), (std::vector<VertexId>{2}));
  EXPECT_EQ(hi.select(ring6(), {2, 3, 5}, 0), (std::vector<VertexId>{5}));
}

TEST(DaemonTest, BernoulliValidation) {
  EXPECT_THROW(DistributedBernoulliDaemon(0.0, 1), std::invalid_argument);
  EXPECT_THROW(DistributedBernoulliDaemon(1.5, 1), std::invalid_argument);
  // NaN, and every p with 1 - p == 1 (p <= 2^-54), would reach the
  // geometric skip draw, which divides by log(1 - p) = 0.
  for (const double p : {std::numeric_limits<double>::quiet_NaN(),
                         std::ldexp(1.0, -54), 1e-17}) {
    EXPECT_THROW(DistributedBernoulliDaemon(p, 1), std::invalid_argument)
        << p;
  }
  // A p just above 2^-54 still samples: the one forced vertex.
  DistributedBernoulliDaemon tiny(6e-17, 1);
  EXPECT_EQ(tiny.select(ring6(), all6(), 0).size(), 1u);
  EXPECT_NO_THROW(DistributedBernoulliDaemon(1.0, 1));
}

TEST(DaemonTest, BernoulliAlwaysNonEmptyAndSubset) {
  DistributedBernoulliDaemon d(0.3, 99);
  for (StepIndex i = 0; i < 200; ++i) {
    const auto sel = d.select(ring6(), {0, 2, 4}, i);
    EXPECT_FALSE(sel.empty());
    for (VertexId v : sel) EXPECT_TRUE(v == 0 || v == 2 || v == 4);
  }
}

TEST(DaemonTest, BernoulliWithPOneIsSynchronous) {
  DistributedBernoulliDaemon d(1.0, 5);
  EXPECT_EQ(d.select(ring6(), all6(), 0), all6());
}

TEST(DaemonTest, RandomSubsetNonEmptySubset) {
  RandomSubsetDaemon d(123);
  for (StepIndex i = 0; i < 200; ++i) {
    const auto sel = d.select(ring6(), all6(), i);
    EXPECT_FALSE(sel.empty());
    EXPECT_TRUE(std::is_sorted(sel.begin(), sel.end()));
    for (VertexId v : sel) EXPECT_GE(v, 0);
  }
}

TEST(DaemonTest, PriorityCentralFollowsPriority) {
  PriorityCentralDaemon d({5, 3, 1});
  EXPECT_EQ(d.select(ring6(), {1, 3}, 0), (std::vector<VertexId>{3}));
  EXPECT_EQ(d.select(ring6(), {1, 2}, 0), (std::vector<VertexId>{1}));
  // Falls back to first enabled when nothing matches.
  EXPECT_EQ(d.select(ring6(), {0, 2}, 0), (std::vector<VertexId>{0}));
}

TEST(DaemonTest, ScheduledDaemonReplaysThenFallsBack) {
  ScheduledDaemon d(std::vector<std::vector<VertexId>>{{1, 2}, {4}});
  EXPECT_EQ(d.select(ring6(), all6(), 0), (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(d.select(ring6(), all6(), 1), (std::vector<VertexId>{4}));
  // Exhausted: synchronous fallback.
  EXPECT_EQ(d.select(ring6(), all6(), 2), all6());
}

TEST(DaemonTest, ScheduledDaemonIntersectsWithEnabled) {
  ScheduledDaemon d(std::vector<std::vector<VertexId>>{{0, 1, 2}});
  EXPECT_EQ(d.select(ring6(), {2, 4}, 0), (std::vector<VertexId>{2}));
}

TEST(DaemonTest, ScheduledDaemonSkipsFullyDisabledEntries) {
  ScheduledDaemon d(std::vector<std::vector<VertexId>>{{0}, {3}});
  // First entry disabled -> falls through to second.
  EXPECT_EQ(d.select(ring6(), {3, 5}, 0), (std::vector<VertexId>{3}));
}

TEST(DaemonTest, ScheduledDaemonReset) {
  ScheduledDaemon d(std::vector<std::vector<VertexId>>{{1}});
  EXPECT_EQ(d.select(ring6(), all6(), 0), (std::vector<VertexId>{1}));
  d.reset();
  EXPECT_EQ(d.select(ring6(), all6(), 0), (std::vector<VertexId>{1}));
}

TEST(DaemonTest, Names) {
  EXPECT_EQ(SynchronousDaemon().name(), "synchronous");
  EXPECT_EQ(DistributedBernoulliDaemon(0.5, 1).name(),
            "distributed-bernoulli(p=0.5)");
}

}  // namespace
}  // namespace specstab
