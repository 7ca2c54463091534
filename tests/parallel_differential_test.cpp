// Thread-count differential suite: the production engine at many thread
// counts vs the reference oracle.  The engine's contract is *thread-count
// invariance*: the same RunResult — final configuration, every meter, the
// complete delta trace — at any `--threads` value, because shard
// boundaries only change which worker computes a verdict, never the
// verdict itself.
//
// This file carries the `parallel` ctest label: the TSan CI job builds
// with -fsanitize=thread and runs exactly this suite, so every test here
// doubles as a data-race probe.  The scenarios are therefore chosen to
// keep many shards busy: graphs big enough for 8–16 non-empty shards,
// dense synchronous steps (sharded install or column swap-in, then the
// per-shard rescan into the enabled set's mask words)
// interleaved with the sparse steps of central and Bernoulli daemons
// (which run on the calling thread at every thread count), radius-2
// guards whose balls straddle shard boundaries, and trace recording on
// top.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "baselines/dijkstra_ring.hpp"
#include "baselines/matching.hpp"
#include "baselines/min_plus_one.hpp"
#include "baselines/unbounded_unison.hpp"
#include "core/adversarial_configs.hpp"
#include "core/incremental_legitimacy.hpp"
#include "core/ssme.hpp"
#include "extensions/coloring.hpp"
#include "extensions/leader_election.hpp"
#include "graph/generators.hpp"
#include "sim/daemon.hpp"
#include "sim/engine.hpp"
#include "sim/fault_plan.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/protocol_registry.hpp"
#include "test_protocols.hpp"

namespace specstab {
namespace {

const std::vector<unsigned>& thread_axis() {
  static const std::vector<unsigned> threads = {1, 2, 3, 5, 8, 16};
  return threads;
}

const std::vector<std::string>& daemon_axis() {
  static const std::vector<std::string> daemons = {
      "synchronous", "central-rr", "bernoulli-0.5", "random-subset"};
  return daemons;
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

/// Runs the scenario on the reference engine, then on the production
/// engine at every thread-axis value, asserting identical RunResults
/// (traces included — opt.record_trace is forced on).
template <ProtocolConcept P, class MakeChecker>
void expect_thread_invariant(const Graph& g, const P& proto,
                             const std::string& daemon_name,
                             std::uint64_t seed,
                             const Config<typename P::State>& init,
                             MakeChecker make_checker, RunOptions opt,
                             const std::string& context) {
  opt.record_trace = true;
  opt.engine = EngineKind::kReference;
  opt.threads = 1;
  auto base_daemon = make_daemon(daemon_name, seed);
  auto base_checker = make_checker();
  const auto base =
      run_with_engine(g, proto, *base_daemon, init, opt, base_checker);

  opt.engine = EngineKind::kIncremental;
  for (const unsigned threads : thread_axis()) {
    opt.threads = threads;
    auto daemon = make_daemon(daemon_name, seed);
    auto checker = make_checker();
    const auto got = run_with_engine(g, proto, *daemon, init, opt, checker);
    expect_same_run(base, got,
                    context + " threads=" + std::to_string(threads));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ParallelDifferential, UnisonManyShardsAllDaemons) {
  // Graphs with enough vertices that all 16 shards are non-empty and
  // radius-1 balls regularly straddle boundaries.
  std::vector<Graph> topologies;
  topologies.push_back(make_ring(96));
  topologies.push_back(make_torus(8, 9));
  topologies.push_back(make_random_connected(80, 0.06, 19));
  const UnboundedUnisonProtocol proto;
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    const Graph& g = topologies[t];
    for (const auto& daemon_name : daemon_axis()) {
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        RunOptions opt;
        opt.max_steps = 300;
        opt.steps_after_convergence = 0;
        expect_thread_invariant(
            g, proto, daemon_name, seed,
            uniform_config<UnboundedUnisonProtocol::State>(g, -5, 20, seed),
            [&] { return make_unbounded_unison_checker(proto); }, opt,
            "topology#" + std::to_string(t) + " daemon=" + daemon_name +
                " seed=" + std::to_string(seed));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ParallelDifferential, TwoHopGuardsAcrossShardBoundaries) {
  // Radius-2 guards: a dense step's per-shard rescan reads states two
  // hops across its boundaries, and a sparse step's dirty ball spans
  // shards, so every shard cut is exercised from both sides.
  const TwoHopMaxProtocol proto(2);
  std::vector<Graph> topologies;
  topologies.push_back(make_ring(64));
  topologies.push_back(make_random_connected(48, 0.08, 7));
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    const Graph& g = topologies[t];
    for (const auto& daemon_name : daemon_axis()) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        RunOptions opt;
        opt.max_steps = 250;
        opt.steps_after_convergence = 0;
        expect_thread_invariant(
            g, proto, daemon_name, seed,
            uniform_config<std::int32_t>(g, 0, 40, seed),
            [] { return AlwaysLegitimate{}; }, opt,
            "topology#" + std::to_string(t) + " daemon=" + daemon_name +
                " seed=" + std::to_string(seed));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ParallelDifferential, SsmeClosureAndLegitimacyMeters) {
  // The Gamma_1 checker takes fused per-shard totals on dense steps and
  // ball updates on sparse ones; first_legitimate / last_illegitimate /
  // moves_to_convergence must match the reference engine exactly.
  const Graph g = make_torus(6, 8);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  for (const auto& daemon_name : daemon_axis()) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      RunOptions opt;
      opt.max_steps = 400;
      expect_thread_invariant(
          g, proto, daemon_name, seed, random_config(g, proto.clock(), seed),
          [&] { return make_gamma1_checker(proto); }, opt,
          "daemon=" + daemon_name + " seed=" + std::to_string(seed));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ParallelDifferential, MatchingPointerStates) {
  // Pointer-valued states with out-of-range garbage: exercises flip
  // detection where guards read neighbor pointers.
  const Graph g = make_random_connected(60, 0.07, 23);
  const MatchingProtocol proto;
  for (const auto& daemon_name : daemon_axis()) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      RunOptions opt;
      opt.max_steps = 400;
      opt.steps_after_convergence = 0;
      expect_thread_invariant(
          g, proto, daemon_name, seed,
          uniform_config<MatchingProtocol::State>(g, -3, g.n() + 2, seed),
          [&] { return make_matching_checker(proto); }, opt,
          "daemon=" + daemon_name + " seed=" + std::to_string(seed));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ParallelDifferential, MoreThreadsThanVertices) {
  // threads=16 on a 5-vertex ring: most shards are empty ranges; the
  // engine must tolerate them (empty slices, zero-length scans).
  const Graph g = make_ring(5);
  const UnboundedUnisonProtocol proto;
  for (const auto& daemon_name : daemon_axis()) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      RunOptions opt;
      opt.max_steps = 120;
      opt.steps_after_convergence = 0;
      expect_thread_invariant(
          g, proto, daemon_name, seed,
          uniform_config<UnboundedUnisonProtocol::State>(g, -5, 20, seed),
          [&] { return make_unbounded_unison_checker(proto); }, opt,
          "daemon=" + daemon_name + " seed=" + std::to_string(seed));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ParallelDifferential, WordBoundaryShardMisalignment) {
  // Shard boundaries snap to 64-vertex EnabledSet words, so ring sizes
  // straddling word boundaries (63/64/65/97/129/190) produce shards of
  // unequal word counts, trailing partial words, and — at high thread
  // counts — empty trailing shards.  The fused dense path (per-shard
  // SimdEval + disjoint mask-word writes + shard-ordered count and score
  // sums) must be byte-identical through all of it.
  const UnboundedUnisonProtocol proto;
  for (const VertexId n : {63, 64, 65, 97, 129, 190}) {
    const Graph g = make_ring(n);
    for (const std::string& daemon_name :
         {std::string("synchronous"), std::string("bernoulli-0.5")}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        RunOptions opt;
        opt.max_steps = 200;
        opt.steps_after_convergence = 0;
        expect_thread_invariant(
            g, proto, daemon_name, seed,
            uniform_config<UnboundedUnisonProtocol::State>(g, -5, 20, seed),
            [&] { return make_unbounded_unison_checker(proto); }, opt,
            "n=" + std::to_string(n) + " daemon=" + daemon_name +
                " seed=" + std::to_string(seed));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ParallelDifferential, GraphsSmallerThanOneShard) {
  // Word-aligned bounds mean any graph with n <= 64 lands entirely in
  // shard 0 and every other shard is an empty range, at every thread
  // count — the dense path must degenerate to the single-shard scan.
  const UnboundedUnisonProtocol proto;
  for (const VertexId n : {3, 17, 40, 63}) {
    const Graph g = make_ring(n);
    for (const auto& daemon_name : daemon_axis()) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        RunOptions opt;
        opt.max_steps = 150;
        opt.steps_after_convergence = 0;
        expect_thread_invariant(
            g, proto, daemon_name, seed,
            uniform_config<UnboundedUnisonProtocol::State>(g, -5, 20, seed),
            [&] { return make_unbounded_unison_checker(proto); }, opt,
            "n=" + std::to_string(n) + " daemon=" + daemon_name +
                " seed=" + std::to_string(seed));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

/// One row of the per-checker shard table: a checker factory with its
/// protocol and a seeded init family, run for 300 steps on one graph
/// under one daemon across the thread axis.
struct ScoreCheckerRow {
  std::string name;
  bool ring_only = false;
  std::function<void(const Graph&, const std::string&, std::uint64_t)> run;
};

/// Builds the row for `make_proto(g)`, `make_init(g, proto, seed)` and
/// `make_checker(g, proto)`.
template <class MakeProto, class MakeInit, class MakeChecker>
ScoreCheckerRow score_checker_row(std::string name, bool ring_only,
                                  MakeProto make_proto, MakeInit make_init,
                                  MakeChecker make_checker) {
  auto run = [=](const Graph& g, const std::string& daemon_name,
                 std::uint64_t seed) {
    std::string context = name + " n=" + std::to_string(g.n());
    context += " daemon=" + daemon_name + " seed=" + std::to_string(seed);
    RunOptions opt;
    opt.max_steps = 300;
    const auto proto = make_proto(g);
    const auto init = make_init(g, proto, seed);
    const auto checker = [&] { return make_checker(g, proto); };
    expect_thread_invariant(g, proto, daemon_name, seed, init, checker, opt,
                            context);
  };
  return {std::move(name), ring_only, run};
}

TEST(ParallelDifferential, ScoredKernelPartialSumsAcrossShards) {
  // Every score checker's dense-step verdict is one accept_total() of
  // per-shard int64 partial totals merged at the barrier: the Gamma_1
  // kernel's fused totals for ssme, score_range() over the shard's range
  // for every other checker.  On graphs spanning several 64-vertex
  // words, the shard-ordered merge must reproduce the reference oracle's
  // full-scan total bit-exactly — first_legitimate / last_illegitimate
  // hinge on it — and under TSan every concurrent score_range() is
  // probed.
  const std::vector<ScoreCheckerRow> rows = {
      score_checker_row(
          "ssme-gamma1", false,
          [](const Graph& g) { return SsmeProtocol::for_graph(g); },
          [](const Graph& g, const SsmeProtocol& p, std::uint64_t seed) {
            return random_config(g, p.clock(), seed);
          },
          [](const Graph&, const SsmeProtocol& p) {
            return make_gamma1_checker(p);
          }),
      score_checker_row(
          "ssme-safety", false,
          [](const Graph& g) { return SsmeProtocol::for_graph(g); },
          [](const Graph& g, const SsmeProtocol& p, std::uint64_t seed) {
            return seed % 2 == 0 ? two_gradient_config(g, p)
                                 : random_config(g, p.clock(), seed);
          },
          [](const Graph&, const SsmeProtocol& p) {
            return make_mutex_safety_checker(p);
          }),
      score_checker_row(
          "dijkstra-ring", true,
          [](const Graph& g) { return DijkstraRingProtocol::for_ring(g); },
          [](const Graph& g, const DijkstraRingProtocol& p,
             std::uint64_t seed) {
            return uniform_config<DijkstraRingProtocol::State>(g, 0,
                                                               p.k() - 1, seed);
          },
          [](const Graph&, const DijkstraRingProtocol& p) {
            return make_single_token_checker(p);
          }),
      score_checker_row(
          "min-plus-one", false,
          [](const Graph& g) { return MinPlusOneProtocol(g); },
          [](const Graph& g, const MinPlusOneProtocol& p, std::uint64_t seed) {
            return uniform_config<MinPlusOneProtocol::State>(
                g, 0, p.level_cap(), seed);
          },
          [](const Graph&, const MinPlusOneProtocol& p) {
            return make_min_plus_one_checker(p);
          }),
      score_checker_row(
          "leader", false,
          [](const Graph& g) { return LeaderElectionProtocol(g); },
          [](const Graph& g, const LeaderElectionProtocol&, std::uint64_t s) {
            return random_leader_config(g, s);
          },
          [](const Graph& g, const LeaderElectionProtocol& p) {
            return make_leader_election_checker(p, g);
          }),
      score_checker_row(
          "matching", false, [](const Graph&) { return MatchingProtocol(); },
          [](const Graph& g, const MatchingProtocol&, std::uint64_t seed) {
            return uniform_config<MatchingProtocol::State>(g, -3, g.n() + 2,
                                                           seed);
          },
          [](const Graph&, const MatchingProtocol& p) {
            return make_matching_checker(p);
          }),
      score_checker_row(
          "coloring", false, [](const Graph& g) { return ColoringProtocol(g); },
          [](const Graph& g, const ColoringProtocol& p, std::uint64_t seed) {
            return random_coloring_config(g, p.palette_size(), seed);
          },
          [](const Graph&, const ColoringProtocol& p) {
            return make_coloring_checker(p);
          }),
      score_checker_row(
          "unbounded-unison", false,
          [](const Graph&) { return UnboundedUnisonProtocol(); },
          [](const Graph& g, const UnboundedUnisonProtocol&,
             std::uint64_t seed) {
            return uniform_config<UnboundedUnisonProtocol::State>(g, -5, 20,
                                                                  seed);
          },
          [](const Graph&, const UnboundedUnisonProtocol& p) {
            return make_unbounded_unison_checker(p);
          }),
  };
  const Graph ring = make_ring(200);
  const Graph torus = make_torus(10, 12);
  for (const auto& row : rows) {
    for (const Graph* g : {&ring, &torus}) {
      if (row.ring_only && g != &ring) continue;
      for (const std::string& daemon_name :
           {std::string("synchronous"), std::string("bernoulli-0.5")}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
          row.run(*g, daemon_name, seed);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

/// Everything an observer saw: per action, the step index, the activated
/// set and how many of its vertices were enabled in the pre-configuration
/// the observer was handed.
struct ObservedAction {
  StepIndex step;
  std::vector<VertexId> activated;
  std::size_t enabled_seen;

  friend bool operator==(const ObservedAction&,
                         const ObservedAction&) = default;
};

/// Runs a select-all scenario on the reference engine and on the
/// production engine at 1, 2 and 8 threads, with the trace on and off and
/// with and without an observer, asserting identical RunResults (traces
/// and recovery stats included) and identical observed actions.  A
/// select-all daemon's action is listed only when something reads it, so
/// each of these switches picks a different engine path.  `fault_text`
/// (empty: none) adds a FaultPlan whose epochs fall between the
/// synchronous steps.
template <ProtocolConcept P, class MakeChecker>
void expect_select_all_paths_agree(const Graph& g, const P& proto,
                                   const std::string& daemon_name,
                                   const Config<typename P::State>& init,
                                   MakeChecker make_checker,
                                   const std::string& fault_text,
                                   RunOptions opt, const std::string& context) {
  using State = typename P::State;
  const std::uint64_t seed = 9;
  const FaultSpec fault =
      fault_text.empty() ? FaultSpec{} : FaultSpec::parse(fault_text);
  const auto run = [&](EngineKind engine, unsigned threads, bool trace,
                       std::vector<ObservedAction>* seen) {
    RunOptions o = opt;
    o.engine = engine;
    o.threads = threads;
    o.record_trace = trace;
    auto daemon = make_daemon(daemon_name, seed);
    auto checker = make_checker();
    StepObserver<State> observer;
    if (seen != nullptr) {
      observer = [&g, &proto, seen](StepIndex step, ConfigView<State> cfg,
                                    const std::vector<VertexId>& activated) {
        std::size_t enabled_seen = 0;
        for (const VertexId v : activated) {
          enabled_seen += proto.enabled(g, cfg, v) ? 1 : 0;
        }
        seen->push_back({step, activated, enabled_seen});
      };
    }
    std::optional<FaultPlan<State>> plan;
    if (fault.active()) {
      plan.emplace(
          fault, seed, protocol_locality_radius(proto),
          [&init](std::uint64_t) { return init; },
          [&proto](const Graph& gg, const ConfigView<State>& cv, VertexId v) {
            return proto.enabled(gg, cv, v);
          });
    }
    return run_with_engine(g, proto, *daemon, init, o, checker, observer,
                           plan ? &*plan : nullptr);
  };
  for (const bool trace : {false, true}) {
    for (const bool observe : {false, true}) {
      std::vector<ObservedAction> base_seen;
      const auto base = run(EngineKind::kReference, 1, trace,
                            observe ? &base_seen : nullptr);
      if (fault.active()) {
        ASSERT_EQ(base.perturb.epochs_fired, fault.epochs) << context;
      }
      for (const unsigned threads : {1u, 2u, 8u}) {
        const std::string ctx = context + " trace=" + std::to_string(trace) +
                                " observer=" + std::to_string(observe) +
                                " threads=" + std::to_string(threads);
        std::vector<ObservedAction> seen;
        const auto got = run(EngineKind::kIncremental, threads, trace,
                             observe ? &seen : nullptr);
        expect_same_run(base, got, ctx);
        EXPECT_TRUE(seen == base_seen) << ctx;
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ParallelDifferential, SelectAllStepsEveryFallbackMatchesReference) {
  // The synchronous daemon's actions are the enabled set itself.  The
  // engine lists that set only for a consumer: the trace, an observer, a
  // dense install after a sparse fault epoch left the successor column
  // stale, a sparse step once the run has converged far enough, a
  // protocol without a guard kernel, and a checker without a per-vertex
  // score.  Otherwise the step is a column swap-in plus one rescan, also
  // in a run without a checker (AlwaysLegitimate scores 0 everywhere).
  // bernoulli-1 selects every enabled vertex through select_into(), the
  // path of a daemon that does not declare it.
  const Graph ring = make_ring(200);
  const Graph grid = make_grid(12, 14);
  const SsmeProtocol ssme = SsmeProtocol::for_graph(ring);
  const auto gamma1 = [&] { return make_gamma1_checker(ssme); };
  for (const std::string& daemon_name :
       {std::string("synchronous"), std::string("bernoulli-1")}) {
    RunOptions opt;
    opt.max_steps = 300;
    expect_select_all_paths_agree(ring, ssme, daemon_name,
                                  random_config(ring, ssme.clock(), 3), gamma1,
                                  "", opt, "ssme " + daemon_name);
    if (::testing::Test::HasFatalFailure()) return;
    // Two victims per epoch: sparse epochs between dense steps.
    expect_select_all_paths_agree(
        ring, ssme, daemon_name, random_config(ring, ssme.clock(), 4), gamma1,
        "periodic:period=7;k=2;epochs=6;start=5", opt,
        "ssme sparse epochs " + daemon_name);
    if (::testing::Test::HasFatalFailure()) return;

    // min+1 converges from dense steps to sparse ones and terminates.
    const MinPlusOneProtocol mpo(grid);
    RunOptions until_done;
    until_done.max_steps = 2000;
    expect_select_all_paths_agree(
        grid, mpo, daemon_name,
        uniform_config<MinPlusOneProtocol::State>(grid, 0, mpo.level_cap(), 5),
        [&] { return make_min_plus_one_checker(mpo); }, "", until_done,
        "min-plus-one " + daemon_name);
    if (::testing::Test::HasFatalFailure()) return;

    // Matching has no guard kernel; it converges to a silent matching.
    const Graph random = make_random_connected(150, 0.04, 11);
    const MatchingProtocol matching;
    expect_select_all_paths_agree(
        random, matching, daemon_name,
        uniform_config<MatchingProtocol::State>(random, -3, random.n() + 2, 6),
        [&] { return make_matching_checker(matching); }, "", until_done,
        "matching " + daemon_name);
    if (::testing::Test::HasFatalFailure()) return;

    // A checker without a per-vertex score takes on_update() with the
    // step's targets, so a kernel protocol's steps list the set.  A run
    // without a checker swaps the column in, as does one with a score.
    const auto rescan = [&] {
      return RescanChecker<ClockValue>(
          [&ssme](const Graph& gg, const ConfigView<ClockValue>& cfg) {
            return ssme.legitimate(gg, cfg);
          });
    };
    const auto unchecked = [] { return AlwaysLegitimate{}; };
    const Config<ClockValue> init = random_config(ring, ssme.clock(), 7);
    expect_select_all_paths_agree(ring, ssme, daemon_name, init, rescan, "",
                                  opt, "ssme rescan " + daemon_name);
    if (::testing::Test::HasFatalFailure()) return;
    expect_select_all_paths_agree(ring, ssme, daemon_name, init, unchecked,
                                  "", opt, "ssme unchecked " + daemon_name);
    if (::testing::Test::HasFatalFailure()) return;
    // A radius-2 protocol without a kernel.
    const TwoHopMaxProtocol two_hop(2);
    expect_select_all_paths_agree(
        ring, two_hop, daemon_name,
        uniform_config<std::int32_t>(ring, 0, 40, 7),
        [] { return AlwaysLegitimate{}; }, "", opt, "two-hop " + daemon_name);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ParallelDifferential, ExternalPoolReuseIsInvisible) {
  // RunOptions::pool hands the engine a caller-owned persistent
  // ShardPool (the campaign-runner / serve reuse path).  Reusing one
  // pool across many runs, at thread counts at and below the pool's
  // participant count, must be byte-identical to pool-less runs.
  const Graph g = make_ring(130);
  const UnboundedUnisonProtocol proto;
  ShardPool pool(7);  // 8 participants
  for (const std::string& daemon_name :
       {std::string("synchronous"), std::string("random-subset")}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      RunOptions opt;
      opt.max_steps = 200;
      opt.steps_after_convergence = 0;
      opt.record_trace = true;
      opt.engine = EngineKind::kReference;
      opt.threads = 1;
      auto base_daemon = make_daemon(daemon_name, seed);
      auto base_checker = make_unbounded_unison_checker(proto);
      const auto init =
          uniform_config<UnboundedUnisonProtocol::State>(g, -5, 20, seed);
      const auto base =
          run_with_engine(g, proto, *base_daemon, init, opt, base_checker);

      opt.engine = EngineKind::kIncremental;
      opt.pool = &pool;
      // threads > participants is clamped to the pool's size.
      for (const unsigned threads : {2u, 8u, 16u}) {
        opt.threads = threads;
        auto daemon = make_daemon(daemon_name, seed);
        auto checker = make_unbounded_unison_checker(proto);
        const auto got =
            run_with_engine(g, proto, *daemon, init, opt, checker);
        expect_same_run(base, got,
                        "pooled daemon=" + daemon_name + " seed=" +
                            std::to_string(seed) + " threads=" +
                            std::to_string(threads));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ParallelDifferential, RegistrySessionDigestsThreadInvariant) {
  // Through the type-erased session API: printed states and FNV digests
  // must be identical at every thread count for every protocol.
  const auto& registry = ProtocolRegistry::instance();
  const Graph g = make_ring(24);
  const VertexId diam = 12;
  for (const auto& entry : registry.entries()) {
    SessionSpec spec;
    spec.daemon = "bernoulli-0.5";
    spec.seed = 4242;
    spec.threads = 1;
    const SessionResult base = entry.run_on(g, diam, spec);
    for (const unsigned threads : {2u, 8u}) {
      spec.threads = threads;
      const SessionResult got = entry.run_on(g, diam, spec);
      const std::string ctx =
          entry.info.name + " threads=" + std::to_string(threads);
      ASSERT_EQ(got.final_state, base.final_state) << ctx;
      ASSERT_EQ(got.final_digest, base.final_digest) << ctx;
      EXPECT_EQ(got.steps, base.steps) << ctx;
      EXPECT_EQ(got.moves, base.moves) << ctx;
      EXPECT_EQ(got.rounds, base.rounds) << ctx;
      EXPECT_EQ(got.terminated, base.terminated) << ctx;
      EXPECT_EQ(got.converged, base.converged) << ctx;
      EXPECT_EQ(got.convergence_steps, base.convergence_steps) << ctx;
    }
  }
}

TEST(ParallelDifferential, ShardPoolSurvivesManySessions) {
  // Back-to-back sessions each construct and destroy a ShardPool; the
  // handshake (generation counter + pending countdown) must leave no
  // stuck workers behind.  Under TSan this also checks the join path.
  const Graph g = make_ring(40);
  const UnboundedUnisonProtocol proto;
  for (int rep = 0; rep < 20; ++rep) {
    RunOptions opt;
    opt.threads = 8;
    opt.max_steps = 60;
    opt.steps_after_convergence = 0;
    auto daemon = make_daemon("bernoulli-0.5", 100 + rep);
    auto checker = make_unbounded_unison_checker(proto);
    const auto res = run_with_engine(
        g, proto, *daemon, uniform_config<UnboundedUnisonProtocol::State>(
                               g, -5, 20, 100 + rep),
        opt, checker);
    EXPECT_GT(res.steps, 0) << "rep=" << rep;
  }
}

}  // namespace
}  // namespace specstab
