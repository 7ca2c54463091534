// Successor-freshness suite.  A dense rescan leaves the successor of
// every enabled vertex next to its verdict, and the next dense install
// reads them instead of calling apply() — but only while they describe
// the live configuration.  Every sparse install (action or fault epoch)
// changes states without refreshing the column, so the install after it
// must fall back to apply(); a dense fault epoch installs the plan's
// states and its rescan makes the column fresh again.
//
// The runs below drive that state machine through every transition with
// a scheduled daemon: dense, sparse, dense, fault epoch, dense, dense,
// fault epoch, sparse, dense — once with sparse epochs and once with
// dense ones (a plan corrupts the same number of vertices every epoch).
// The production engine must match the reference engine byte for byte at
// 1, 2 and 8 threads.  A fresh dense step that activates every enabled
// vertex swaps the column in whole; the second dense step after the
// first epoch names only every other vertex, so its fresh install
// activates a strict subset of the enabled set and fills segments from
// the column instead.  Each protocol below (ssme, leader election and a
// counting protocol that shows which dense installs called apply())
// takes both installs.
//
// This file carries the `parallel` ctest label, so the TSan CI job runs
// it: the column is written by one phase's shards and read by the next
// phase's.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/adversarial_configs.hpp"
#include "core/incremental_legitimacy.hpp"
#include "core/ssme.hpp"
#include "extensions/leader_election.hpp"
#include "graph/generators.hpp"
#include "sim/daemon.hpp"
#include "sim/engine.hpp"
#include "sim/fault_plan.hpp"
#include "sim/parallel_engine.hpp"
#include "test_protocols.hpp"

namespace specstab {
namespace {

// Fault epochs fire before actions 3 and 5.
constexpr StepIndex kFirstEpoch = 3;
constexpr StepIndex kEpochPeriod = 2;
constexpr std::int64_t kEpochs = 2;
constexpr StepIndex kSteps = 10;

bool epoch_before(StepIndex action) {
  return action == kFirstEpoch || action == kFirstEpoch + kEpochPeriod;
}

/// Whether action i is scheduled dense: D S D D H S D, then the
/// synchronous fallback.
bool scheduled_dense(StepIndex action) { return action != 1 && action != 5; }

/// The dense action H that names every other vertex.  It follows a dense
/// action, so its install always reads a fresh column.
constexpr StepIndex kHalfAction = 4;

/// Dense entries name every vertex (the daemon intersects them with the
/// enabled set), except the entry of kHalfAction, which names every other
/// vertex; sparse entries name a handful of spread-out vertices.
std::vector<std::vector<VertexId>> mixed_schedule(VertexId n) {
  std::vector<VertexId> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), VertexId{0});
  std::vector<VertexId> half;
  for (VertexId v = 0; v < n; v += 2) half.push_back(v);
  std::vector<VertexId> few;
  for (VertexId v = 3; v < n; v += n / 8) few.push_back(v);
  std::vector<std::vector<VertexId>> schedule;
  for (StepIndex i = 0; i < 7; ++i) {
    if (i == kHalfAction) {
      schedule.push_back(half);
    } else {
      schedule.push_back(scheduled_dense(i) ? all : few);
    }
  }
  return schedule;
}

/// What one action did: the vertices it activated, out of the enabled
/// vertices of its pre-configuration.
struct ActionSize {
  std::size_t moved = 0;
  std::size_t enabled = 0;
};

FaultSpec epoch_spec(std::int64_t victims) {
  FaultSpec spec;
  spec.kind = FaultKind::kPeriodic;
  spec.start = kFirstEpoch;
  spec.period = kEpochPeriod;
  spec.epochs = kEpochs;
  spec.k = victims;
  return spec;
}

template <class State>
void expect_same_run(const RunResult<State>& a, const RunResult<State>& b,
                     const std::string& ctx) {
  ASSERT_EQ(a.final_config, b.final_config) << ctx;
  EXPECT_EQ(a.steps, b.steps) << ctx;
  EXPECT_EQ(a.moves, b.moves) << ctx;
  EXPECT_EQ(a.rounds, b.rounds) << ctx;
  EXPECT_EQ(a.terminated, b.terminated) << ctx;
  EXPECT_EQ(a.first_legitimate, b.first_legitimate) << ctx;
  EXPECT_EQ(a.last_illegitimate, b.last_illegitimate) << ctx;
  EXPECT_EQ(a.moves_to_convergence, b.moves_to_convergence) << ctx;
  EXPECT_EQ(a.rounds_to_convergence, b.rounds_to_convergence) << ctx;
  EXPECT_TRUE(a.perturb == b.perturb) << ctx;
  EXPECT_TRUE(a.trace == b.trace) << ctx;
}

/// Runs the mixed schedule with epochs of `victims` vertices on `engine`
/// and returns the result; `sizes` receives every action's size.
template <class P, class MakeChecker, class Pool>
RunResult<typename P::State> run_mixed(
    const Graph& g, const P& proto, const Config<typename P::State>& init,
    MakeChecker make_checker, Pool pool, std::int64_t victims,
    EngineKind engine, unsigned threads, std::vector<ActionSize>& sizes,
    const StepObserver<typename P::State>& also = nullptr) {
  using State = typename P::State;
  ScheduledDaemon daemon(mixed_schedule(g.n()));
  FaultPlan<State> plan(epoch_spec(victims), 99,
                        protocol_locality_radius(proto), pool, nullptr);
  RunOptions opt;
  opt.max_steps = kSteps;
  opt.engine = engine;
  opt.threads = threads;
  opt.record_trace = true;
  sizes.clear();
  const StepObserver<State> observer =
      [&](StepIndex step, const ConfigView<State>& cfg,
          const std::vector<VertexId>& activated) {
        ActionSize size{activated.size(), 0};
        for (VertexId v = 0; v < g.n(); ++v) {
          if (proto.enabled(g, cfg, v)) ++size.enabled;
        }
        sizes.push_back(size);
        if (also) also(step, cfg, activated);
      };
  auto checker = make_checker();
  return run_with_engine(g, proto, daemon, init, opt, checker, observer,
                         &plan);
}

/// Asserts the run realized the intended pattern, so a schedule entry
/// the daemon skipped cannot weaken the test silently: the scheduled
/// dense/sparse split, every dense action but kHalfAction activating the
/// whole enabled set, and kHalfAction a strict subset of it.
void expect_pattern(const Graph& g, VertexId radius,
                    const std::vector<ActionSize>& sizes,
                    const std::string& ctx) {
  ASSERT_EQ(sizes.size(), static_cast<std::size_t>(kSteps)) << ctx;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto action = static_cast<StepIndex>(i);
    const std::string where = ctx + " action " + std::to_string(i) +
                              " moved " + std::to_string(sizes[i].moved) +
                              " of " + std::to_string(sizes[i].enabled);
    EXPECT_EQ(is_dense_update(static_cast<std::int64_t>(sizes[i].moved),
                              radius, g),
              scheduled_dense(action))
        << where;
    if (action == kHalfAction) {
      EXPECT_LT(sizes[i].moved, sizes[i].enabled) << where;
    } else if (scheduled_dense(action)) {
      EXPECT_EQ(sizes[i].moved, sizes[i].enabled) << where;
    }
  }
}

template <class P, class MakeChecker, class Pool>
void expect_mixed_runs_match_reference(const Graph& g, const P& proto,
                                       const Config<typename P::State>& init,
                                       MakeChecker make_checker, Pool pool,
                                       const std::string& name) {
  const VertexId radius = protocol_locality_radius(proto);
  for (const std::int64_t victims : {std::int64_t{2}, std::int64_t{g.n()}}) {
    ASSERT_EQ(is_dense_update(victims, radius, g), victims == g.n());
    const std::string ctx = name + " epoch-victims=" + std::to_string(victims);
    std::vector<ActionSize> sizes;
    const auto base = run_mixed(g, proto, init, make_checker, pool, victims,
                                EngineKind::kReference, 1, sizes);
    expect_pattern(g, radius, sizes, ctx);
    ASSERT_EQ(base.perturb.epochs_fired, kEpochs) << ctx;
    for (const unsigned threads : {1u, 2u, 8u}) {
      const auto got = run_mixed(g, proto, init, make_checker, pool, victims,
                                 EngineKind::kIncremental, threads, sizes);
      expect_same_run(base, got, ctx + " threads=" + std::to_string(threads));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(SuccessorFreshness, SsmeMixedStepsMatchReference) {
  // The Gamma_1 checker takes the scored kernel's fused total, so this
  // covers enabled_bytes_scored()'s successors.
  const Graph g = make_ring(200);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  expect_mixed_runs_match_reference(
      g, proto, random_config(g, proto.clock(), 5),
      [&] { return make_gamma1_checker(proto); },
      [&](std::uint64_t seed) { return random_config(g, proto.clock(), seed); },
      "ssme ring-200");
}

TEST(SuccessorFreshness, LeaderMixedStepsMatchReference) {
  // Struct states through the unscored kernel and the checker's ranged
  // score sums.
  const Graph g = make_torus(12, 12);
  const LeaderElectionProtocol proto(g);
  expect_mixed_runs_match_reference(
      g, proto, random_leader_config(g, 8),
      [&] { return make_leader_election_checker(proto, g); },
      [&](std::uint64_t seed) { return random_leader_config(g, seed); },
      "leader torus-12x12");
}

TEST(SuccessorFreshness, DenseInstallCallsApplyOnlyOnStaleSteps) {
  const Graph g = make_ring(200);
  std::atomic<std::int64_t> applies{0};
  const CountingUnisonProtocol proto(applies);
  const auto random_clocks = [&](std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::int64_t> pick(-5, 20);
    Config<std::int64_t> cfg(static_cast<std::size_t>(g.n()));
    for (auto& c : cfg) c = pick(rng);
    return cfg;
  };
  const auto init = random_clocks(17);
  const auto make_checker = [&] {
    return make_unbounded_unison_checker(proto.inner());
  };
  for (const std::int64_t victims : {std::int64_t{2}, std::int64_t{g.n()}}) {
    const bool dense_epochs = is_dense_update(victims, 1, g);
    std::vector<ActionSize> sizes;
    const auto base = run_mixed(g, proto, init, make_checker, random_clocks,
                                victims, EngineKind::kReference, 1, sizes);
    for (const unsigned threads : {1u, 2u, 8u}) {
      const std::string ctx = "epoch-victims=" + std::to_string(victims) +
                              " threads=" + std::to_string(threads);
      // Counter value seen before each action: the difference between
      // consecutive readings is that action's apply() calls (epochs and
      // guard re-tests never call apply()).
      std::vector<std::int64_t> before;
      applies = 0;
      const auto got = run_mixed(
          g, proto, init, make_checker, random_clocks, victims,
          EngineKind::kIncremental, threads, sizes,
          [&](StepIndex, const ConfigView<std::int64_t>&,
              const std::vector<VertexId>&) { before.push_back(applies); });
      before.push_back(applies);
      expect_same_run(base, got, ctx);
      expect_pattern(g, 1, sizes, ctx);
      if (::testing::Test::HasFatalFailure()) return;

      // The freshness model: the column is fresh exactly when the latest
      // install was dense (the run starts without one).
      bool fresh = false;
      int fresh_dense = 0;
      int stale_dense = 0;
      for (StepIndex i = 0; i < kSteps; ++i) {
        const auto a = static_cast<std::size_t>(i);
        if (epoch_before(i)) fresh = dense_epochs;
        const bool dense = scheduled_dense(i);
        const std::int64_t calls = before[a + 1] - before[a];
        const bool reads_column = dense && fresh;
        EXPECT_EQ(calls,
                  reads_column ? 0 : static_cast<std::int64_t>(sizes[a].moved))
            << ctx << " action " << i << (dense ? " dense" : " sparse")
            << (fresh ? " fresh" : " stale");
        if (dense) (fresh ? fresh_dense : stale_dense) += 1;
        fresh = dense;
      }
      // Both kinds of dense install happened.
      EXPECT_GT(fresh_dense, 0) << ctx;
      EXPECT_GT(stale_dense, 0) << ctx;
    }
  }
}

}  // namespace
}  // namespace specstab
