// Tests for schedule recording, replay, and serialization: a recorded
// randomized run replays move-for-move through ScheduledDaemon.
#include "sim/schedule.hpp"

#include <gtest/gtest.h>

#include "core/adversarial_configs.hpp"
#include "core/ssme.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"

namespace specstab {
namespace {

TEST(ScheduleTest, TextRoundTrip) {
  const Schedule schedule = {{3, 7, 12}, {0}, {1, 2}};
  const auto text = schedule_to_text(schedule);
  EXPECT_EQ(text, "3 7 12\n0\n1 2\n");
  EXPECT_EQ(schedule_from_text(text), schedule);
}

TEST(ScheduleTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(schedule_from_text("1 2\n\n3\n"), std::invalid_argument);
  EXPECT_THROW(schedule_from_text("1 x 2\n"), std::invalid_argument);
  EXPECT_THROW(schedule_from_text("+1 2\n"), std::invalid_argument);
}

TEST(ScheduleTest, EmptyScheduleSerializesToEmptyText) {
  EXPECT_EQ(schedule_to_text({}), "");
  EXPECT_TRUE(schedule_from_text("").empty());
}

TEST(ScheduleTest, RecordedRandomRunReplaysExactly) {
  const Graph g = make_grid(3, 3);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  const auto init = random_config(g, proto.clock(), 21);
  RunOptions opt;
  opt.max_steps = 200;

  // Record a randomized run.
  DistributedBernoulliDaemon random_daemon(0.6, 77);
  RecordingDaemon recorder(random_daemon);
  const auto original = run_execution(g, proto, recorder, init, opt);
  ASSERT_GT(recorder.schedule().size(), 0u);

  // Replay it deterministically (round-trip through text on the way).
  const auto schedule =
      schedule_from_text(schedule_to_text(recorder.schedule()));
  ScheduledDaemon replayer(schedule);
  const auto replayed = run_execution(g, proto, replayer, init, opt);

  EXPECT_EQ(replayed.final_config, original.final_config);
  EXPECT_EQ(replayed.steps, original.steps);
  EXPECT_EQ(replayed.moves, original.moves);
}

TEST(ScheduleTest, ResetDiscardsRecording) {
  const Graph g = make_ring(5);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  SynchronousDaemon inner;
  RecordingDaemon recorder(inner);
  RunOptions opt;
  opt.max_steps = 10;
  (void)run_execution(g, proto, recorder, zero_config(g), opt);
  EXPECT_EQ(recorder.schedule().size(), 10u);
  recorder.reset();
  EXPECT_TRUE(recorder.schedule().empty());
}

TEST(ScheduleTest, TakeScheduleMovesOutTheRecording) {
  const Graph g = make_ring(4);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  SynchronousDaemon inner;
  RecordingDaemon recorder(inner);
  RunOptions opt;
  opt.max_steps = 5;
  (void)run_execution(g, proto, recorder, zero_config(g), opt);
  const auto schedule = recorder.take_schedule();
  EXPECT_EQ(schedule.size(), 5u);
  EXPECT_TRUE(recorder.schedule().empty());
}

TEST(ScheduleTest, ReplayedScheduleIntersectsEnabledSet) {
  // Replaying a schedule against a *different* initial configuration is
  // legal: ScheduledDaemon intersects with the enabled set (falling back
  // when empty), so the run stays a valid execution.
  const Graph g = make_ring(6);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  RunOptions opt;
  opt.max_steps = 50;

  CentralRandomDaemon random_daemon(5);
  RecordingDaemon recorder(random_daemon);
  (void)run_execution(g, proto, recorder,
                      random_config(g, proto.clock(), 1), opt);

  ScheduledDaemon replayer(recorder.take_schedule());
  const auto res = run_execution(g, proto, replayer,
                                 random_config(g, proto.clock(), 2), opt);
  EXPECT_GT(res.steps, 0);
}

}  // namespace
}  // namespace specstab
