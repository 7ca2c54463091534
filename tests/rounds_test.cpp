// Unit tests for asynchronous round accounting.
#include "sim/trace.hpp"

#include <gtest/gtest.h>

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
  EXPECT_FALSE(rc.needs_enabled_before(3, 3));  // synchronous: opens and closes
  rc.on_action(3, {}, {0, 1, 2}, {0, 1, 2});
  EXPECT_EQ(rc.completed_rounds(), 1);
  EXPECT_TRUE(rc.needs_enabled_before(3, 1));  // opens a round on {0, 1, 2}
  rc.on_action(3, {0, 1, 2}, {0}, {0, 1, 2});
  EXPECT_FALSE(rc.needs_enabled_before(3, 1));  // round open: size only
  rc.on_action(3, {}, {1}, {0, 1, 2});
  rc.on_action(3, {}, {2}, {0, 1, 2});
  EXPECT_EQ(rc.completed_rounds(), 2);
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
