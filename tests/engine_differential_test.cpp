// Differential harness: the production engine (at 1, 2 and 8 threads) vs
// the reference full-rescan engine over a randomized grid — every
// protocol crossed with ring/path/torus/random topologies, synchronous /
// central-rr / bernoulli / random-subset daemons, and many seeds.  Every
// run must produce byte-identical final configurations and identical
// steps/moves/rounds/first_legitimate/last_illegitimate/
// moves_to_convergence (the full RunResult metering surface).
//
// The seed count per (protocol, topology, daemon) cell defaults to 200
// (over 20000 scenarios across the suite) and is enlarged further in the
// dedicated CI differential job via SPECSTAB_DIFF_SEEDS.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "baselines/dijkstra_ring.hpp"
#include "baselines/matching.hpp"
#include "baselines/min_plus_one.hpp"
#include "baselines/unbounded_unison.hpp"
#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "core/adversarial_configs.hpp"
#include "core/incremental_legitimacy.hpp"
#include "core/ssme.hpp"
#include "extensions/coloring.hpp"
#include "extensions/leader_election.hpp"
#include "graph/generators.hpp"
#include "sim/daemon.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/protocol_registry.hpp"
#include "test_protocols.hpp"

namespace specstab {
namespace {

std::size_t diff_seeds() {
  if (const char* env = std::getenv("SPECSTAB_DIFF_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 200;
}

const std::vector<std::string>& daemon_axis() {
  static const std::vector<std::string> daemons = {
      "synchronous", "central-rr", "bernoulli-0.5", "random-subset"};
  return daemons;
}

std::vector<Graph> general_topologies() {
  std::vector<Graph> out;
  out.push_back(make_ring(8));
  out.push_back(make_path(9));
  out.push_back(make_torus(3, 4));
  out.push_back(make_random_connected(10, 0.3, 77));
  return out;
}

/// Runs one scenario on the reference engine and on the production
/// engine at 1, 2 and 8 threads (independent daemon instances, fresh
/// checkers) and asserts the RunResults are identical — the production
/// engine's contract is byte-identical output at every thread count.
template <ProtocolConcept P, class MakeChecker>
void expect_engines_agree(const Graph& g, const P& proto,
                          const std::string& daemon_name, std::uint64_t seed,
                          const Config<typename P::State>& init,
                          MakeChecker make_checker, RunOptions opt,
                          const std::string& context) {
  auto ref_daemon = make_daemon(daemon_name, seed);
  auto ref_checker = make_checker();
  opt.engine = EngineKind::kReference;
  const auto ref =
      run_with_engine(g, proto, *ref_daemon, init, opt, ref_checker);

  opt.engine = EngineKind::kIncremental;
  for (const unsigned threads : {1u, 2u, 8u}) {
    auto daemon = make_daemon(daemon_name, seed);
    auto checker = make_checker();
    opt.threads = threads;
    const auto got = run_with_engine(g, proto, *daemon, init, opt, checker);
    const std::string ctx =
        context + " threads=" + std::to_string(threads);

    ASSERT_EQ(ref.final_config, got.final_config) << ctx;
    EXPECT_EQ(ref.steps, got.steps) << ctx;
    EXPECT_EQ(ref.moves, got.moves) << ctx;
    EXPECT_EQ(ref.rounds, got.rounds) << ctx;
    EXPECT_EQ(ref.terminated, got.terminated) << ctx;
    EXPECT_EQ(ref.hit_step_cap, got.hit_step_cap) << ctx;
    EXPECT_EQ(ref.first_legitimate, got.first_legitimate) << ctx;
    EXPECT_EQ(ref.last_illegitimate, got.last_illegitimate) << ctx;
    EXPECT_EQ(ref.moves_to_convergence, got.moves_to_convergence) << ctx;
    EXPECT_EQ(ref.rounds_to_convergence, got.rounds_to_convergence) << ctx;
  }
}

/// The randomized sweep shared by the per-protocol tests: every listed
/// topology x every daemon x diff_seeds() seeds.  `make_init` builds the
/// (seeded) random initial configuration, `make_checker` a fresh
/// legitimacy checker per run.
template <class MakeProto, class MakeInit, class MakeCheckerFor>
void differential_sweep(const std::vector<Graph>& topologies,
                        MakeProto make_proto, MakeInit make_init,
                        MakeCheckerFor make_checker_for, StepIndex max_steps,
                        bool stop_at_convergence) {
  const std::size_t seeds = diff_seeds();
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    const Graph& g = topologies[t];
    const auto proto = make_proto(g);
    for (const auto& daemon_name : daemon_axis()) {
      for (std::size_t s = 0; s < seeds; ++s) {
        const std::uint64_t seed = 1000003u * (t + 1) + 257u * s + 13u;
        RunOptions opt;
        opt.max_steps = max_steps;
        if (stop_at_convergence) opt.steps_after_convergence = 0;
        const auto init = make_init(g, proto, seed);
        expect_engines_agree(
            g, proto, daemon_name, seed, init,
            [&] { return make_checker_for(proto, g); }, opt,
            "topology#" + std::to_string(t) + " daemon=" + daemon_name +
                " seed=" + std::to_string(seed));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

template <class State>
Config<State> uniform_config(const Graph& g, std::int64_t lo, std::int64_t hi,
                             std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> pick(lo, hi);
  Config<State> cfg(static_cast<std::size_t>(g.n()));
  for (auto& v : cfg) v = static_cast<State>(pick(rng));
  return cfg;
}

TEST(EngineDifferentialTest, SsmeGamma1) {
  differential_sweep(
      general_topologies(),
      [](const Graph& g) { return SsmeProtocol::for_graph(g); },
      [](const Graph& g, const SsmeProtocol& p, std::uint64_t seed) {
        return random_config(g, p.clock(), seed);
      },
      [](const SsmeProtocol& p, const Graph&) {
        return make_gamma1_checker(p);
      },
      300, true);
}

TEST(EngineDifferentialTest, SsmeMutexSafety) {
  // The safety slice is not closed (legitimacy can be lost and regained),
  // so these runs exercise the re-convergence marker logic; they span the
  // whole window like the campaign's safety cells.
  differential_sweep(
      general_topologies(),
      [](const Graph& g) { return SsmeProtocol::for_graph(g); },
      [](const Graph& g, const SsmeProtocol& p, std::uint64_t seed) {
        return seed % 4 == 0 ? two_gradient_config(g, p)
                             : random_config(g, p.clock(), seed);
      },
      [](const SsmeProtocol& p, const Graph&) {
        return make_mutex_safety_checker(p);
      },
      250, false);
}

TEST(EngineDifferentialTest, DijkstraRing) {
  std::vector<Graph> rings;
  for (VertexId n : {5, 8, 12}) rings.push_back(make_ring(n));
  differential_sweep(
      rings, [](const Graph& g) { return DijkstraRingProtocol::for_ring(g); },
      [](const Graph& g, const DijkstraRingProtocol& p, std::uint64_t seed) {
        return uniform_config<DijkstraRingProtocol::State>(g, 0, p.k() - 1,
                                                           seed);
      },
      [](const DijkstraRingProtocol& p, const Graph&) {
        return make_single_token_checker(p);
      },
      300, true);
}

TEST(EngineDifferentialTest, MinPlusOne) {
  differential_sweep(
      general_topologies(),
      [](const Graph& g) { return MinPlusOneProtocol(g); },
      [](const Graph& g, const MinPlusOneProtocol& p, std::uint64_t seed) {
        // Arbitrary levels across the [0, cap] domain (post-fault).
        return uniform_config<MinPlusOneProtocol::State>(
            g, 0, p.level_cap(), seed);
      },
      [](const MinPlusOneProtocol& p, const Graph&) {
        return make_min_plus_one_checker(p);
      },
      400, true);
}

TEST(EngineDifferentialTest, Matching) {
  differential_sweep(
      general_topologies(), [](const Graph&) { return MatchingProtocol(); },
      [](const Graph& g, const MatchingProtocol&, std::uint64_t seed) {
        // Pointers across the whole corrupted range: null, valid ids,
        // out-of-range garbage.
        return uniform_config<MatchingProtocol::State>(g, -3, g.n() + 2,
                                                       seed);
      },
      [](const MatchingProtocol& p, const Graph&) {
        return make_matching_checker(p);
      },
      400, true);
}

TEST(EngineDifferentialTest, Coloring) {
  differential_sweep(
      general_topologies(), [](const Graph& g) { return ColoringProtocol(g); },
      [](const Graph& g, const ColoringProtocol& p, std::uint64_t seed) {
        return random_coloring_config(g, p.palette_size(), seed);
      },
      [](const ColoringProtocol& p, const Graph&) {
        return make_coloring_checker(p);
      },
      400, true);
}

TEST(EngineDifferentialTest, LeaderElection) {
  differential_sweep(
      general_topologies(),
      [](const Graph& g) { return LeaderElectionProtocol(g); },
      [](const Graph& g, const LeaderElectionProtocol&, std::uint64_t seed) {
        return random_leader_config(g, seed);
      },
      [](const LeaderElectionProtocol& p, const Graph& g) {
        return make_leader_election_checker(p, g);
      },
      500, true);
}

TEST(EngineDifferentialTest, UnboundedUnison) {
  differential_sweep(
      general_topologies(),
      [](const Graph&) { return UnboundedUnisonProtocol(); },
      [](const Graph& g, const UnboundedUnisonProtocol&, std::uint64_t seed) {
        return uniform_config<UnboundedUnisonProtocol::State>(g, -5, 20, seed);
      },
      [](const UnboundedUnisonProtocol& p, const Graph&) {
        return make_unbounded_unison_checker(p);
      },
      400, true);
}

TEST(EngineDifferentialTest, TwoHopRadiusProtocol) {
  // Locality radius 2: exercises multi-hop dirty-set expansion in both
  // the engine and a radius-2 score checker.
  auto make_checker = [](const TwoHopMaxProtocol& p, const Graph&) {
    auto score = [&p](const Graph& gg, const Config<std::int32_t>& cfg,
                      VertexId v) -> std::int32_t {
      return p.enabled(gg, cfg, v) ? 1 : 0;
    };
    auto verdict = [](std::int64_t total) { return total == 0; };
    return LocalScoreChecker<std::int32_t, decltype(score),
                             decltype(verdict)>(score, verdict, 2);
  };
  differential_sweep(
      general_topologies(),
      [](const Graph&) { return TwoHopMaxProtocol(2); },
      [](const Graph& g, const TwoHopMaxProtocol&, std::uint64_t seed) {
        return uniform_config<std::int32_t>(g, 0, 40, seed);
      },
      make_checker, 300, true);
}

TEST(EngineDifferentialTest, ClosureViolationCountsAgree) {
  // The ClosureCounting wrapper must observe the same legitimacy sequence
  // on both engines — checked on the non-closed safety predicate.
  const Graph g = make_ring(10);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto init = seed % 3 == 0 ? two_gradient_config(g, proto)
                                    : random_config(g, proto.clock(), seed);
    const auto violations = [&](EngineKind kind, unsigned threads) {
      RunOptions opt;
      opt.max_steps = 200;
      opt.engine = kind;
      opt.threads = threads;
      auto daemon = make_daemon("bernoulli-0.5", seed);
      ClosureCounting checker(make_mutex_safety_checker(proto));
      (void)run_with_engine(g, proto, *daemon, init, opt, checker);
      return checker.violations();
    };
    const std::int64_t ref = violations(EngineKind::kReference, 1);
    for (const unsigned threads : {1u, 2u, 8u}) {
      EXPECT_EQ(violations(EngineKind::kIncremental, threads), ref)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(EngineDifferentialTest, RegistryIterationAllEnginesAllProtocols) {
  // The registry replaces the hand-maintained protocol list: every
  // registered protocol — present and future — is differentially tested
  // through the type-erased session API, each supported init crossed
  // with the daemon axis over many seeds, the production engine at 1, 2
  // and 8 threads vs reference.  The synchronous legs also prove
  // registry completeness of the dense path: protocols without a
  // SimdEval kernel run its scalar fallback.
  const std::size_t seeds = std::max<std::size_t>(25, diff_seeds() / 8);
  const auto& registry = ProtocolRegistry::instance();
  ASSERT_GE(registry.names().size(), 9u);
  for (const auto& entry : registry.entries()) {
    const Graph g = make_ring(8);
    const VertexId diam = 4;
    for (const auto& daemon_name : daemon_axis()) {
      for (const auto& init : entry.info.inits) {
        for (std::size_t s = 0; s < seeds; ++s) {
          SessionSpec spec;
          spec.daemon = daemon_name;
          spec.init = init;
          spec.seed = 77777u * s + 31u;
          spec.engine = EngineKind::kReference;
          const SessionResult ref = entry.run_on(g, diam, spec);
          spec.engine = EngineKind::kIncremental;
          for (const unsigned threads : {1u, 2u, 8u}) {
            spec.threads = threads;
            const SessionResult got = entry.run_on(g, diam, spec);
            const std::string ctx = entry.info.name + " daemon=" +
                                    daemon_name + " init=" + init +
                                    " seed=" + std::to_string(spec.seed) +
                                    " threads=" + std::to_string(threads);
            ASSERT_EQ(got.final_state, ref.final_state) << ctx;
            ASSERT_EQ(got.final_digest, ref.final_digest) << ctx;
            EXPECT_EQ(got.steps, ref.steps) << ctx;
            EXPECT_EQ(got.moves, ref.moves) << ctx;
            EXPECT_EQ(got.rounds, ref.rounds) << ctx;
            EXPECT_EQ(got.terminated, ref.terminated) << ctx;
            EXPECT_EQ(got.hit_step_cap, ref.hit_step_cap) << ctx;
            EXPECT_EQ(got.converged, ref.converged) << ctx;
            EXPECT_EQ(got.convergence_steps, ref.convergence_steps) << ctx;
            EXPECT_EQ(got.moves_to_convergence, ref.moves_to_convergence)
                << ctx;
            EXPECT_EQ(got.rounds_to_convergence, ref.rounds_to_convergence)
                << ctx;
            EXPECT_EQ(got.closure_violations, ref.closure_violations) << ctx;
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(EngineDifferentialTest, RegistrySessionsAgreeByteForByteIncludingTraces) {
  // Every registered protocol x init x daemon on ring 9 and, unless the
  // protocol is ring-only, torus 3x3: printed final states, digests,
  // every meter and the complete delta trace through the erased session
  // boundary must match the reference engine at 1, 2 and 8 threads.
  // The reference engine keeps a plain vector, the production engine
  // its ConfigStore.
  const auto& registry = ProtocolRegistry::instance();
  const Graph ring = make_ring(9);
  const Graph torus = make_torus(3, 3);
  for (const auto& entry : registry.entries()) {
    for (const Graph* g :
         entry.info.ring_only ? std::vector<const Graph*>{&ring}
                              : std::vector<const Graph*>{&ring, &torus}) {
      for (const auto& init : entry.info.inits) {
        for (const std::string& daemon_name :
             {std::string("synchronous"), std::string("central-rr"),
              std::string("bernoulli-0.5")}) {
          SessionSpec spec;
          spec.daemon = daemon_name;
          spec.init = init;
          spec.seed = 7;
          spec.record_trace = true;
          spec.engine = EngineKind::kReference;
          const SessionResult base = entry.run(*g, spec);
          spec.engine = EngineKind::kIncremental;
          for (const unsigned threads : {1u, 2u, 8u}) {
            spec.threads = threads;
            const SessionResult r = entry.run(*g, spec);
            const std::string label =
                entry.info.name + " n=" + std::to_string(g->n()) +
                " init=" + init + " daemon=" + daemon_name +
                " threads=" + std::to_string(threads);
            ASSERT_EQ(base.final_digest, r.final_digest) << label;
            ASSERT_EQ(base.final_state, r.final_state) << label;
            EXPECT_EQ(base.steps, r.steps) << label;
            EXPECT_EQ(base.moves, r.moves) << label;
            EXPECT_EQ(base.rounds, r.rounds) << label;
            EXPECT_EQ(base.converged, r.converged) << label;
            EXPECT_EQ(base.convergence_steps, r.convergence_steps) << label;
            EXPECT_EQ(base.closure_violations, r.closure_violations) << label;
            ASSERT_EQ(base.trace_length, r.trace_length) << label;
            EXPECT_EQ(base.trace_materialize(), r.trace_materialize())
                << label;
          }
        }
      }
    }
  }
}

TEST(EngineDifferentialTest, DeltaTracesIdenticalAcrossEngines) {
  // Trace recording is delta-based; both engines must record the same
  // representation (same activated sets, same change lists), and the
  // reconstructed configurations must replay the execution faithfully.
  const Graph g = make_ring(10);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  struct EngineCase {
    EngineKind kind;
    unsigned threads;
  };
  constexpr EngineCase kCases[] = {{EngineKind::kReference, 1},
                                   {EngineKind::kIncremental, 1},
                                   {EngineKind::kIncremental, 2},
                                   {EngineKind::kIncremental, 8}};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RunOptions opt;
    opt.max_steps = 120;
    opt.record_trace = true;
    std::vector<Config<ClockValue>> observed;
    RunResult<ClockValue> results[4];
    int i = 0;
    for (const EngineCase c : kCases) {
      auto daemon = make_daemon("bernoulli-0.5", seed);
      auto checker = make_gamma1_checker(proto);
      opt.engine = c.kind;
      opt.threads = c.threads;
      observed.clear();
      results[i++] = run_with_engine(
          g, proto, *daemon, random_config(g, proto.clock(), seed), opt,
          checker,
          [&observed](StepIndex, const Config<ClockValue>& cfg,
                      const std::vector<VertexId>&) {
            observed.push_back(cfg);  // pre-action configs: gamma_0..k-1
          });
      // The delta trace reconstructs exactly the configurations the
      // observer saw, plus the final one.
      const auto materialized = results[i - 1].trace.materialize();
      ASSERT_EQ(materialized.size(), observed.size() + 1);
      for (std::size_t j = 0; j < observed.size(); ++j) {
        ASSERT_EQ(materialized[j], observed[j]) << "gamma_" << j;
      }
      ASSERT_EQ(materialized.back(), results[i - 1].final_config);
    }
    EXPECT_EQ(results[0].trace, results[1].trace) << "seed=" << seed;
    EXPECT_EQ(results[0].trace, results[2].trace) << "seed=" << seed;
    EXPECT_EQ(results[0].trace, results[3].trace) << "seed=" << seed;
  }
}

TEST(EngineDifferentialTest, CampaignRowsIdenticalAcrossEngines) {
  // End-to-end: a whole campaign grid must aggregate to identical rows
  // under the reference engine and the production engine at every
  // engine-thread count.
  const campaign::CampaignGrid grid = campaign::thm3_grid(/*smoke=*/true);
  campaign::RunnerOptions opt;
  opt.threads = 2;
  opt.engine = EngineKind::kReference;
  const auto ref = campaign::run_campaign(grid, opt);
  opt.engine = EngineKind::kIncremental;
  for (const unsigned engine_threads : {1u, 2u, 8u}) {
    opt.engine_threads = engine_threads;
    const auto got = campaign::run_campaign(grid, opt);
    ASSERT_EQ(ref.rows.size(), got.rows.size());
    for (std::size_t i = 0; i < ref.rows.size(); ++i) {
      EXPECT_TRUE(ref.rows[i] == got.rows[i])
          << "row " << i << " engine_threads=" << engine_threads;
    }
  }
}

}  // namespace
}  // namespace specstab
