// Tests for the campaign runner core: grid expansion and pruning,
// coordinate-derived seeding, scenario execution semantics, and the
// bit-identical thread-count invariance the runner guarantees.
#include "campaign/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "campaign/campaign.hpp"
#include "campaign/scenario.hpp"
#include "core/speculation.hpp"
#include "core/theory.hpp"
#include "sim/daemon.hpp"

namespace specstab::campaign {
namespace {

CampaignGrid small_grid() {
  CampaignGrid g;
  g.protocols = {"ssme"};
  g.topologies = {{"ring", 6}, {"path", 5}};
  g.daemons = {"synchronous", "central-rr"};
  g.inits = {"random", "zero"};
  g.reps = 3;
  g.base_seed = 7;
  return g;
}

TEST(ScenarioGridTest, ExpandsTheFullCrossProduct) {
  const auto items = expand_grid(small_grid());
  // 1 protocol x 2 topologies x 2 daemons x (3 random reps + 1 zero).
  EXPECT_EQ(items.size(), 2u * 2u * 4u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].index, i);
  }
}

TEST(ScenarioGridTest, DeterministicInitFamiliesCollapseToOneRep) {
  CampaignGrid g = small_grid();
  g.inits = {"zero", "two-gradient"};
  g.reps = 50;
  const auto items = expand_grid(g);
  EXPECT_EQ(items.size(), 2u * 2u * 2u);  // reps ignored for both families
}

TEST(ScenarioGridTest, PrunesMeaninglessCombinations) {
  CampaignGrid g;
  g.protocols = {"dijkstra-ring"};
  g.topologies = {{"ring", 6}, {"path", 5}, {"grid", 3, 3}};
  g.daemons = {"synchronous"};
  g.inits = {"random", "two-gradient",
             "max-tokens"};
  g.reps = 1;
  const auto items = expand_grid(g);
  // Only the ring survives, and two-gradient is pruned for Dijkstra.
  EXPECT_EQ(items.size(), 2u);
  for (const auto& item : items) {
    EXPECT_EQ(item.topology.family, "ring");
    EXPECT_NE(item.init, "two-gradient");
  }
}

TEST(ScenarioGridTest, SeedsAreCoordinateDerivedAndDistinct) {
  const auto items = expand_grid(small_grid());
  std::set<std::uint64_t> seeds;
  for (const auto& item : items) seeds.insert(item.seed);
  EXPECT_EQ(seeds.size(), items.size());

  // The seed of a cell does not depend on which other cells are in the
  // grid: dropping a daemon leaves the surviving cells' seeds unchanged.
  CampaignGrid g = small_grid();
  g.daemons = {"synchronous"};
  const auto fewer = expand_grid(g);
  for (const auto& item : fewer) {
    bool found = false;
    for (const auto& full : items) {
      if (full.topology.label() == item.topology.label() &&
          full.daemon == item.daemon && full.init == item.init &&
          full.rep == item.rep) {
        EXPECT_EQ(full.seed, item.seed);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(ScenarioGridTest, TopologyFactoryMatchesLabels) {
  const TopologySpec ring{"ring", 8};
  EXPECT_EQ(make_topology(ring).n(), 8);
  EXPECT_EQ(ring.label(), "ring 8");
  const TopologySpec grid{"grid", 3, 4};
  EXPECT_EQ(make_topology(grid).n(), 12);
  EXPECT_EQ(grid.label(), "grid 3x4");
  EXPECT_THROW(make_topology({"nope", 3}), std::invalid_argument);
}

TEST(ScenarioGridTest, NameRoundTrips) {
  EXPECT_GE(known_protocols().size(), 9u);
  for (const auto& name : known_protocols()) {
    EXPECT_EQ(protocol_by_name(name), name);
  }
  for (const auto& name : known_inits()) {
    EXPECT_EQ(init_by_name(name), name);
  }
  EXPECT_THROW(protocol_by_name("nope"), std::invalid_argument);
  EXPECT_THROW(init_by_name("nope"), std::invalid_argument);
}

TEST(RunScenarioTest, ZeroConfigIsLegitimateFromTheStart) {
  Scenario s;
  s.protocol = "ssme";
  s.topology = {"ring", 8};
  s.daemon = "synchronous";
  s.init = "zero";
  const auto r = run_scenario(s);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.convergence_steps, 0);
  EXPECT_EQ(r.closure_violations, 0);
  EXPECT_EQ(r.n, 8);
  EXPECT_EQ(r.diam, 4);
}

TEST(RunScenarioTest, SyncConvergenceRespectsTheorem2Bound) {
  Scenario s;
  s.protocol = "ssme";
  s.topology = {"ring", 10};
  s.daemon = "synchronous";
  s.init = "random";
  s.seed = 0xabcd;
  const auto r = run_scenario(s);
  EXPECT_TRUE(r.converged);
  // Gamma_1 entry under sd is within the unison's own convergence; the
  // spec_ME safety slice (ssme-safety) must meet the ceil(diam/2) bound.
  Scenario safety = s;
  safety.protocol = "ssme-safety";
  safety.init = "two-gradient";
  const auto rs = run_scenario(safety);
  EXPECT_TRUE(rs.converged);
  EXPECT_LE(rs.convergence_steps, ssme_sync_bound(rs.diam));
}

TEST(RunScenarioTest, TwoGradientWitnessViolatesSafetyClosure) {
  // The witness starts spec_ME-safe, produces a double privilege at step
  // ceil(diam/2)-1, then stabilizes: the safety predicate is entered,
  // left, and re-entered — at least one closure violation.
  Scenario s;
  s.protocol = "ssme-safety";
  s.topology = {"ring", 12};
  s.daemon = "synchronous";
  s.init = "two-gradient";
  const auto r = run_scenario(s);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.closure_violations, 1);
  EXPECT_GT(r.convergence_steps, 0);
}

TEST(RunScenarioTest, Gamma1IsClosedUnderTheProtocol) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Scenario s;
    s.protocol = "ssme";
    s.topology = {"ring", 8};
    s.daemon = "bernoulli-0.5";
    s.init = "random";
    s.seed = seed;
    const auto r = run_scenario(s);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.closure_violations, 0) << "Gamma_1 must be closed";
  }
}

TEST(RunScenarioTest, DijkstraRingConverges) {
  Scenario s;
  s.protocol = "dijkstra-ring";
  s.topology = {"ring", 7};
  s.daemon = "central-rr";
  s.init = "max-tokens";
  const auto r = run_scenario(s);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.closure_violations, 0) << "single-token set is closed";
  EXPECT_EQ(r.protocol, "dijkstra-ring");
}

TEST(RunScenarioTest, InvalidCombinationsThrow) {
  Scenario s;
  s.protocol = "dijkstra-ring";
  s.topology = {"ring", 6};
  s.daemon = "synchronous";
  s.init = "two-gradient";
  EXPECT_THROW((void)run_scenario(s), std::invalid_argument);
  s.protocol = "ssme";
  s.init = "max-tokens";
  EXPECT_THROW((void)run_scenario(s), std::invalid_argument);
  s.init = "random";
  s.daemon = "no-such-daemon";
  EXPECT_THROW((void)run_scenario(s), std::invalid_argument);
}

TEST(RunCampaignTest, UnknownDaemonPropagatesFromWorkers) {
  CampaignGrid g = small_grid();
  g.daemons = {"no-such-daemon"};
  EXPECT_THROW((void)run_campaign(g), std::invalid_argument);
}

TEST(RunCampaignTest, RowsComeBackInGridOrder) {
  const auto result = run_campaign(small_grid(), {.threads = 4});
  ASSERT_EQ(result.rows.size(), expand_grid(small_grid()).size());
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    EXPECT_EQ(result.rows[i].index, i);
  }
  EXPECT_EQ(result.converged_count(), result.rows.size());
}

TEST(RunCampaignTest, ThreadCountInvariance) {
  // The acceptance bar: a >= 500-scenario campaign produces an identical
  // result table at 1 and 8 threads.
  CampaignGrid g;
  g.protocols = {"ssme", "ssme-safety"};
  g.topologies = {{"ring", 4}, {"ring", 5}, {"ring", 6}, {"path", 4}};
  g.daemons = {"synchronous", "central-rr", "central-random",
               "bernoulli-0.5", "random-subset"};
  g.inits = {"random", "zero",
             "two-gradient"};
  g.reps = 11;  // 2 x 4 x 5 x (11 + 1 + 1) = 520 scenarios
  g.base_seed = 0xfeedface;
  const auto items = expand_grid(g);
  ASSERT_GE(items.size(), 500u);

  const auto serial = run_scenarios(items, {.threads = 1});
  const auto parallel = run_scenarios(items, {.threads = 8});
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i], parallel.rows[i]) << "row " << i;
  }
  EXPECT_EQ(serial.threads_used, 1u);
}

TEST(RunCampaignTest, RerunIsBitIdentical) {
  const auto a = run_campaign(small_grid(), {.threads = 3});
  const auto b = run_campaign(small_grid(), {.threads = 2});
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i], b.rows[i]);
  }
}

TEST(RunCampaignTest, ScheduleOrderInvariance) {
  // Rep-level work stealing hands items out heavy-first; the result
  // table must be bit-identical to running every scenario on its own, in
  // grid order.
  const auto items = expand_grid(small_grid());
  const auto a = run_scenarios(items, {.threads = 4});
  ASSERT_EQ(a.rows.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(a.rows[i], run_scenario(items[i])) << "row " << i;
  }
}

TEST(RunScenarioTest, MaxStepsOverrideKeepsEarlyStopForClosedPredicates) {
  // With an explicit (huge) step budget, a Gamma_1 run must still stop
  // right after convergence instead of simulating the whole budget.
  Scenario s;
  s.protocol = "ssme";
  s.topology = {"ring", 6};
  s.daemon = "synchronous";
  s.init = "random";
  s.seed = 3;
  s.max_steps = 1000000;
  const auto r = run_scenario(s);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.steps, r.convergence_steps + 1);
}

TEST(RunCampaignTest, MaxStepsOverrideCapsRuns) {
  CampaignGrid g = small_grid();
  g.daemons = {"central-rr"};
  g.inits = {"random"};
  RunnerOptions opt;
  opt.threads = 1;
  opt.max_steps_override = 1;
  const auto result = run_campaign(g, opt);
  for (const auto& row : result.rows) {
    EXPECT_LE(row.steps, 1);
  }
}

TEST(ScenarioGridTest, RandomizedDaemonsKeepRepsForDeterministicInits) {
  // A randomized daemon samples a fresh schedule per seed, so even a
  // fixed initial configuration needs every repetition.
  CampaignGrid g;
  g.protocols = {"ssme"};
  g.topologies = {{"ring", 6}};
  g.daemons = {"bernoulli-0.5", "synchronous"};
  g.inits = {"two-gradient"};
  g.reps = 7;
  const auto items = expand_grid(g);
  EXPECT_EQ(items.size(), 7u + 1u);  // randomized keeps reps, sync collapses
  EXPECT_TRUE(daemon_is_randomized("central-random"));
  EXPECT_TRUE(daemon_is_randomized("bernoulli-0.25"));
  EXPECT_FALSE(daemon_is_randomized("synchronous"));
  EXPECT_FALSE(daemon_is_randomized("central-min-id"));
}

TEST(PresetGridTest, PortfolioDaemonsMatchAdversaryPortfolioStandard) {
  // thm3_grid approximates the unfair daemon via portfolio_daemons();
  // this locks the name list to AdversaryPortfolio::standard so the two
  // cannot drift apart silently.
  auto portfolio = AdversaryPortfolio::standard(7);
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < portfolio.size(); ++i) {
    expected.push_back(portfolio.daemon(i).name());
  }
  std::vector<std::string> actual;
  for (const auto& name : portfolio_daemons()) {
    actual.push_back(make_daemon(name, 7)->name());
  }
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected);
}

TEST(PresetGridTest, PresetsExpandNonEmptyAndSmokeShrinks) {
  for (const bool smoke : {true, false}) {
    EXPECT_FALSE(expand_grid(thm2_grid(smoke)).empty());
    EXPECT_FALSE(expand_grid(thm3_grid(smoke)).empty());
    EXPECT_FALSE(expand_grid(xover_grid(smoke)).empty());
  }
  EXPECT_LT(expand_grid(thm2_grid(true)).size(),
            expand_grid(thm2_grid(false)).size());
  EXPECT_LT(expand_grid(thm3_grid(true)).size(),
            expand_grid(thm3_grid(false)).size());
  EXPECT_FALSE(expand_grid(demo_grid()).empty());
}

TEST(PresetGridTest, SweepPresetCoversEveryRegisteredProtocol) {
  // The cross-protocol preset must carry the whole registry on its
  // protocol axis, and expansion must leave every non-ring-only protocol
  // with at least one scenario.
  for (const bool smoke : {true, false}) {
    const CampaignGrid g = sweep_grid(smoke);
    EXPECT_EQ(g.protocols, known_protocols());
    const auto items = expand_grid(g);
    std::set<std::string> seen;
    for (const auto& item : items) seen.insert(item.protocol);
    for (const auto& name : known_protocols()) {
      EXPECT_TRUE(seen.contains(name)) << name << " missing from sweep";
    }
  }
  EXPECT_LT(expand_grid(sweep_grid(true)).size(),
            expand_grid(sweep_grid(false)).size());
}

TEST(RunCampaignTest, SweepSmokeConvergesAcrossProtocols) {
  // End to end through the type-erased dispatch: every protocol x daemon
  // x init cell of the smoke sweep runs and converges.
  const auto result = run_campaign(sweep_grid(/*smoke=*/true), {.threads = 2});
  ASSERT_FALSE(result.rows.empty());
  EXPECT_EQ(result.converged_count(), result.rows.size());
}

}  // namespace
}  // namespace specstab::campaign
