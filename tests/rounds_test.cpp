// Unit tests for asynchronous round accounting.
#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <vector>

#include "graph/generators.hpp"
#include "sim/daemon.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"

namespace specstab {
namespace {

TEST(RoundCounterTest, SynchronousStepsAreRounds) {
  RoundCounter rc(3);
  // Every action serves the whole enabled set: one round per action.
  rc.on_action({0, 1, 2}, {0, 1, 2}, {0, 1, 2});
  EXPECT_EQ(rc.completed_rounds(), 1);
  rc.on_action({0, 1, 2}, {0, 1, 2}, {});
  EXPECT_EQ(rc.completed_rounds(), 2);
}

TEST(RoundCounterTest, CentralScheduleNeedsFullSweep) {
  RoundCounter rc(3);
  rc.on_action({0, 1, 2}, {0}, {0, 1, 2});
  EXPECT_EQ(rc.completed_rounds(), 0);
  rc.on_action({0, 1, 2}, {1}, {0, 1, 2});
  EXPECT_EQ(rc.completed_rounds(), 0);
  rc.on_action({0, 1, 2}, {2}, {0, 1, 2});
  EXPECT_EQ(rc.completed_rounds(), 1);  // all three initially-enabled served
}

TEST(RoundCounterTest, DisablingNeutralisesPending) {
  RoundCounter rc(3);
  rc.on_action({0, 1, 2}, {0}, {0, 1});  // 2 became disabled: neutralised
  EXPECT_EQ(rc.completed_rounds(), 0);
  rc.on_action({0, 1}, {1}, {0, 1});     // 0 and 1 served -> round closes
  EXPECT_EQ(rc.completed_rounds(), 1);
}

TEST(RoundCounterTest, ReactivationDoesNotRejoinOpenRound) {
  RoundCounter rc(2);
  // Round opens on {0, 1}; vertex 1 disabled then re-enabled: it was
  // neutralised, so only 0 remains pending.
  rc.on_action({0, 1}, {0}, {0});
  EXPECT_EQ(rc.completed_rounds(), 1);  // 0 served, 1 neutralised
}

TEST(RoundCounterTest, SnapshotReadOnlyWhenARoundOpensPartially) {
  // Callers that repair the enabled set in place pass its pre-action size
  // and copy the set only when needs_enabled_before() asks; the empty
  // vectors below stand in for snapshots that are never read.
  RoundCounter rc(3);
  const std::vector<VertexId> all = {0, 1, 2};
  EXPECT_FALSE(rc.needs_enabled_before(3, 3));  // synchronous: opens and closes
  rc.on_action(3, {}, all, all, nullptr);
  EXPECT_EQ(rc.completed_rounds(), 1);
  EXPECT_TRUE(rc.needs_enabled_before(3, 1));  // opens a round on {0, 1, 2}
  rc.on_action(3, all, {0}, all, nullptr);
  EXPECT_FALSE(rc.needs_enabled_before(3, 1));  // round open: size only
  rc.on_action(3, {}, {1}, all, nullptr);
  rc.on_action(3, {}, {2}, all, nullptr);
  EXPECT_EQ(rc.completed_rounds(), 2);
}

TEST(RoundCounterTest, TurnedOffListMatchesFullPass) {
  // Without fault epochs every pending vertex is enabled before each
  // action, so the pending vertices an action neutralises are among the
  // vertices it turned off.  A counter fed only that list must count the
  // same rounds as one that tests every vertex against the post-action
  // set, over random enabled-set sequences and activation subsets.
  constexpr VertexId kN = 24;
  std::mt19937_64 rng(7);
  std::bernoulli_distribution coin(0.5);
  for (int trial = 0; trial < 20; ++trial) {
    RoundCounter full(kN);
    RoundCounter listed(kN);
    std::vector<VertexId> before = {0, 5, 9};
    for (int action = 0; action < 300; ++action) {
      std::vector<VertexId> activated, after, turned_off;
      for (VertexId v : before) {
        if (coin(rng)) activated.push_back(v);
      }
      if (activated.empty()) activated.push_back(before.front());
      for (VertexId v = 0; v < kN; ++v) {
        if (coin(rng)) after.push_back(v);
      }
      if (after.empty()) after.push_back(0);
      std::set_difference(before.begin(), before.end(), after.begin(),
                          after.end(), std::back_inserter(turned_off));
      full.on_action(before, activated, after);
      listed.on_action(before.size(), before, activated, after, &turned_off);
      ASSERT_EQ(listed.completed_rounds(), full.completed_rounds())
          << "trial " << trial << " action " << action;
      before = after;
    }
    EXPECT_GT(full.completed_rounds(), 0) << "trial " << trial;
  }
}

TEST(RoundCounterTest, ResetClearsState) {
  RoundCounter rc(2);
  rc.on_action({0, 1}, {0}, {0, 1});
  rc.reset();
  EXPECT_EQ(rc.completed_rounds(), 0);
  rc.on_action({0, 1}, {0, 1}, {});
  EXPECT_EQ(rc.completed_rounds(), 1);
}

// Integration: engine round metering on a countdown protocol.
struct CountdownProtocol {
  using State = int;
  [[nodiscard]] bool enabled(const Graph&, const Config<State>& cfg,
                             VertexId v) const {
    return cfg[static_cast<std::size_t>(v)] > 0;
  }
  [[nodiscard]] State apply(const Graph&, const Config<State>& cfg,
                            VertexId v) const {
    return cfg[static_cast<std::size_t>(v)] - 1;
  }
  [[nodiscard]] std::string_view rule_name(const Graph&, const Config<State>&,
                                           VertexId) const {
    return "DEC";
  }
};

TEST(RoundCounterTest, EngineSynchronousRoundsEqualSteps) {
  const Graph g = make_ring(5);
  CountdownProtocol proto;
  SynchronousDaemon d;
  RunOptions opt;
  const auto res =
      run_execution(g, proto, d, Config<int>{3, 3, 3, 3, 3}, opt);
  EXPECT_EQ(res.steps, 3);
  EXPECT_EQ(res.rounds, res.steps);
}

TEST(RoundCounterTest, EngineCentralRoundsAreCompressed) {
  const Graph g = make_ring(4);
  CountdownProtocol proto;
  CentralRoundRobinDaemon d;
  RunOptions opt;
  const auto res =
      run_execution(g, proto, d, Config<int>{2, 2, 2, 2}, opt);
  EXPECT_EQ(res.steps, 8);   // 8 central actions
  EXPECT_EQ(res.rounds, 2);  // two sweeps over everyone
}

}  // namespace
}  // namespace specstab
