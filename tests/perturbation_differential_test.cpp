// Perturbation differential suite: fault-injected runs must stay
// byte-identical — final configuration, every meter, the recovery
// distribution, and the complete delta trace with its perturbation
// records — across both engines and every thread count.
// The FaultPlan draws every victim and corrupted value from its own
// seeded stream, so engine-side data structures can never leak into the
// schedule; this suite is the check that holds that contract.
//
// This file carries the `perturb` ctest label: the CI perturbation job
// runs exactly this suite (plus fault_plan_test) under ASan/UBSan and
// again under TSan, so the multi-thread legs double as race probes on
// the engine's fault epochs, which run the same sharded dense path as
// daemon actions.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "baselines/unbounded_unison.hpp"
#include "campaign/artifacts.hpp"
#include "campaign/runner.hpp"
#include "campaign/stats.hpp"
#include "core/adversarial_configs.hpp"
#include "core/incremental_legitimacy.hpp"
#include "core/ssme.hpp"
#include "graph/generators.hpp"
#include "sim/daemon.hpp"
#include "sim/engine.hpp"
#include "sim/fault_plan.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/protocol_registry.hpp"

namespace specstab {
namespace {

/// Seeds per (topology, daemon, fault-kind) cell; the nightly deep
/// differential job enlarges it via SPECSTAB_PERTURB_SEEDS.
std::size_t perturb_seeds() {
  if (const char* env = std::getenv("SPECSTAB_PERTURB_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 4;
}

const std::vector<std::string>& fault_axis() {
  static const std::vector<std::string> faults = {
      "periodic:period=12;k=3;epochs=3;start=8",
      "burst:period=15;k=5;epochs=3;start=10",
      "adversarial:period=20;k=2;epochs=2;start=6",
  };
  return faults;
}

template <class State>
Config<State> uniform_config(const Graph& g, std::int64_t lo, std::int64_t hi,
                             std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> pick(lo, hi);
  Config<State> cfg(static_cast<std::size_t>(g.n()));
  for (auto& s : cfg) s = static_cast<State>(pick(rng));
  return cfg;
}

template <class State>
void expect_same_run(const RunResult<State>& a, const RunResult<State>& b,
                     const std::string& ctx) {
  ASSERT_EQ(a.final_config, b.final_config) << ctx;
  EXPECT_EQ(a.steps, b.steps) << ctx;
  EXPECT_EQ(a.moves, b.moves) << ctx;
  EXPECT_EQ(a.rounds, b.rounds) << ctx;
  EXPECT_EQ(a.terminated, b.terminated) << ctx;
  EXPECT_EQ(a.hit_step_cap, b.hit_step_cap) << ctx;
  EXPECT_EQ(a.first_legitimate, b.first_legitimate) << ctx;
  EXPECT_EQ(a.last_illegitimate, b.last_illegitimate) << ctx;
  EXPECT_EQ(a.moves_to_convergence, b.moves_to_convergence) << ctx;
  EXPECT_EQ(a.rounds_to_convergence, b.rounds_to_convergence) << ctx;
  EXPECT_EQ(a.perturb, b.perturb) << ctx;
  EXPECT_TRUE(a.trace == b.trace) << ctx;
}

/// Runs one perturbed scenario on the reference oracle, then on the
/// production engine at threads {1, 2, 8}, asserting identical
/// RunResults with traces and recovery stats.  The production runs are
/// repeated with the trace off: a synchronous step the engine need not
/// list takes a different path when nothing records it.
template <ProtocolConcept P, class MakeChecker, class Pool>
void expect_perturbation_invariant(const Graph& g, const P& proto,
                                   const std::string& daemon_name,
                                   std::uint64_t seed,
                                   const Config<typename P::State>& init,
                                   MakeChecker make_checker, Pool pool,
                                   const FaultSpec& fault, RunOptions opt,
                                   const std::string& context) {
  using State = typename P::State;
  opt.record_trace = true;
  const auto guard = [&proto](const Graph& gg, const ConfigView<State>& cv,
                              VertexId v) { return proto.enabled(gg, cv, v); };
  const auto run = [&](EngineKind engine, unsigned threads) {
    RunOptions o = opt;
    o.engine = engine;
    o.threads = threads;
    auto daemon = make_daemon(daemon_name, seed);
    auto checker = make_checker();
    FaultPlan<State> plan(fault, seed, 2, pool, guard);
    return run_with_engine(g, proto, *daemon, init, o, checker, nullptr,
                           &plan);
  };

  const auto base = run(EngineKind::kReference, 1);
  // Stall-fire guarantees every epoch fires even when the protocol
  // terminates early; a shortfall here means the schedule itself broke.
  ASSERT_EQ(base.perturb.epochs_fired, fault.epochs) << context;

  for (const unsigned threads : {1u, 2u, 8u}) {
    const auto got = run(EngineKind::kIncremental, threads);
    expect_same_run(base, got,
                    context + " threads=" + std::to_string(threads));
    if (::testing::Test::HasFatalFailure()) return;
  }
  opt.record_trace = false;
  auto untraced = base;
  untraced.trace.clear();
  for (const unsigned threads : {1u, 2u, 8u}) {
    const auto got = run(EngineKind::kIncremental, threads);
    expect_same_run(untraced, got,
                    context + " untraced threads=" + std::to_string(threads));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PerturbationDifferential, UnisonAllKindsEnginesAndLayouts) {
  // Unbounded unison's state is arithmetic, which both engines store as
  // one vector, so the layout axis of the name has a single value.
  std::vector<Graph> topologies;
  topologies.push_back(make_ring(48));
  topologies.push_back(make_random_connected(40, 0.08, 5));
  const UnboundedUnisonProtocol proto;
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    const Graph& g = topologies[t];
    const auto pool = [&g](std::uint64_t s) {
      return uniform_config<UnboundedUnisonProtocol::State>(g, -5, 20, s);
    };
    for (const std::string& daemon_name :
         {std::string("synchronous"), std::string("central-rr"),
          std::string("bernoulli-0.5")}) {
      for (const std::string& fault_text : fault_axis()) {
        const FaultSpec fault = FaultSpec::parse(fault_text);
        for (std::uint64_t seed = 1; seed <= perturb_seeds(); ++seed) {
          RunOptions opt;
          opt.max_steps = 400;
          opt.steps_after_convergence = 0;
          expect_perturbation_invariant(
              g, proto, daemon_name, seed,
              uniform_config<UnboundedUnisonProtocol::State>(g, -5, 20, seed),
              [&] { return make_unbounded_unison_checker(proto); }, pool,
              fault, opt,
              "topology#" + std::to_string(t) + " daemon=" + daemon_name +
                  " fault=" + fault_text + " seed=" + std::to_string(seed));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(PerturbationDifferential, SsmeRecoveryMetersAcrossEngines) {
  // The Gamma_1 checker must be refreshed after every corruption; a
  // stale cached score would skew first_legitimate / recovery_steps on
  // exactly one engine and fail the cross-engine comparison here.
  const Graph g = make_torus(5, 6);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  const auto pool = [&g, &proto](std::uint64_t s) {
    return random_config(g, proto.clock(), s);
  };
  for (const std::string& daemon_name :
       {std::string("synchronous"), std::string("bernoulli-0.5")}) {
    for (const std::string& fault_text : fault_axis()) {
      const FaultSpec fault = FaultSpec::parse(fault_text);
      for (std::uint64_t seed = 1; seed <= perturb_seeds(); ++seed) {
        RunOptions opt;
        opt.max_steps = 600;
        opt.steps_after_convergence = 0;
        expect_perturbation_invariant(
            g, proto, daemon_name, seed, random_config(g, proto.clock(), seed),
            [&] { return make_gamma1_checker(proto); }, pool, fault, opt,
            "daemon=" + daemon_name + " fault=" + fault_text +
                " seed=" + std::to_string(seed));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(PerturbationDifferential, RegistrySessionsAgreeForEveryProtocol) {
  // Through the type-erased session API: every registered protocol, the
  // production engine at 1, 2 and 8 threads against the reference engine.
  // Digests, meters, recovery stats and service stalls must match byte
  // for byte.
  const auto& registry = ProtocolRegistry::instance();
  const Graph g = make_ring(24);
  const VertexId diam = 12;
  for (const auto& entry : registry.entries()) {
    SessionSpec spec;
    spec.daemon = "bernoulli-0.5";
    spec.seed = 4242;
    spec.perturb = "periodic:period=6;k=3;epochs=3";
    spec.engine = EngineKind::kReference;
    const SessionResult base = entry.run_on(g, diam, spec);
    EXPECT_EQ(base.perturb, "periodic:period=6;k=3;epochs=3;start=6")
        << entry.info.name;
    EXPECT_EQ(base.perturb_epochs, 3) << entry.info.name;

    spec.engine = EngineKind::kIncremental;
    for (const unsigned threads : {1u, 2u, 8u}) {
      spec.threads = threads;
      const SessionResult got = entry.run_on(g, diam, spec);
      const std::string ctx =
          entry.info.name + " threads=" + std::to_string(threads);
      ASSERT_EQ(got.final_state, base.final_state) << ctx;
      ASSERT_EQ(got.final_digest, base.final_digest) << ctx;
      EXPECT_EQ(got.steps, base.steps) << ctx;
      EXPECT_EQ(got.moves, base.moves) << ctx;
      EXPECT_EQ(got.rounds, base.rounds) << ctx;
      EXPECT_EQ(got.converged, base.converged) << ctx;
      EXPECT_EQ(got.convergence_steps, base.convergence_steps) << ctx;
      EXPECT_EQ(got.closure_violations, base.closure_violations) << ctx;
      EXPECT_EQ(got.perturb, base.perturb) << ctx;
      EXPECT_EQ(got.perturb_epochs, base.perturb_epochs) << ctx;
      EXPECT_EQ(got.perturb_unrecovered, base.perturb_unrecovered) << ctx;
      EXPECT_EQ(got.perturb_fire_steps, base.perturb_fire_steps) << ctx;
      EXPECT_EQ(got.recovery_steps, base.recovery_steps) << ctx;
      EXPECT_EQ(got.service_stalls, base.service_stalls) << ctx;
      EXPECT_EQ(got.notes, base.notes) << ctx;
    }
  }
}

TEST(PerturbationDifferential, RegistryTracesCarryIdenticalPerturbations) {
  // Delta traces replay corrupted configurations too; the materialized
  // trace (every gamma_i rendered per vertex) must agree between the
  // reference engine and the production engine at 8 threads.
  const auto& registry = ProtocolRegistry::instance();
  const auto* entry = registry.find("ssme");
  ASSERT_NE(entry, nullptr);
  const Graph g = make_ring(16);
  SessionSpec spec;
  spec.daemon = "synchronous";
  spec.seed = 99;
  spec.perturb = "burst:period=10;k=4;epochs=2;start=5";
  spec.record_trace = true;
  spec.engine = EngineKind::kReference;
  const SessionResult a = entry->run_on(g, 8, spec);
  spec.engine = EngineKind::kIncremental;
  spec.threads = 8;
  const SessionResult b = entry->run_on(g, 8, spec);
  ASSERT_EQ(a.trace_length, b.trace_length);
  EXPECT_GT(a.trace_length, 0);
  EXPECT_EQ(a.trace_materialize(), b.trace_materialize());
}

TEST(PerturbationDifferential, PerturbedCampaignArtifactsThreadInvariant) {
  // The full campaign path: a grid with a perturb axis must emit
  // byte-identical JSON and CSV artifacts at 1 and 8 worker threads,
  // and the perturbed cells must actually have fired their epochs.
  campaign::CampaignGrid grid;
  grid.protocols = {"ssme", "min-plus-one"};
  grid.topologies = {{"ring", 8}, {"ring", 12}};
  grid.daemons = {"synchronous", "central-rr"};
  grid.inits = {"random"};
  grid.reps = 2;
  grid.base_seed = 77;
  grid.perturbs = {"none", "periodic:period=6;k=2;epochs=2",
                   "burst:period=8;k=3;epochs=2"};

  const auto serial = campaign::run_campaign(grid, {.threads = 1});
  const auto parallel = campaign::run_campaign(grid, {.threads = 8});
  EXPECT_EQ(campaign::to_json(serial, campaign::aggregate(serial)),
            campaign::to_json(parallel, campaign::aggregate(parallel)));
  EXPECT_EQ(campaign::cells_to_csv(campaign::aggregate(serial)),
            campaign::cells_to_csv(campaign::aggregate(parallel)));
  EXPECT_EQ(campaign::runs_to_csv(serial), campaign::runs_to_csv(parallel));

  const auto cells = campaign::aggregate(serial);
  std::size_t perturbed_cells = 0;
  for (const auto& cell : cells) {
    if (cell.perturb == "none") {
      EXPECT_EQ(cell.perturb_epochs, 0) << cell.protocol;
      continue;
    }
    ++perturbed_cells;
    // 2 epochs per run x 2 reps.
    EXPECT_EQ(cell.perturb_epochs, 4) << cell.protocol << " " << cell.perturb;
  }
  EXPECT_EQ(perturbed_cells, cells.size() * 2 / 3);
  const auto csv = campaign::cells_to_csv(cells);
  EXPECT_NE(csv.find("periodic:period=6;k=2;epochs=2;start=6"),
            std::string::npos);
}

}  // namespace
}  // namespace specstab
