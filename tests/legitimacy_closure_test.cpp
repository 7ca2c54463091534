// Property harness for the incremental legitimacy checkers: along real
// executions (and across injected corruptions) the cached verdict must
// equal a from-scratch evaluation of the predicate after every enabled
// move — including the re-convergence path, where legitimacy is lost and
// later regained and the checker's cached counts must follow both
// transitions.  A shard axis holds the ranged sums the production
// engine's dense steps merge (score_range() per shard) to the cached
// total after every move, for every checker factory.
#include <gtest/gtest.h>

#include <cstdint>
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
#include "sim/parallel_engine.hpp"

namespace specstab {
namespace {

template <class State>
std::vector<VertexId> changed_vertices(const Config<State>& before,
                                       const Config<State>& after) {
  std::vector<VertexId> changed;
  for (VertexId v = 0; v < static_cast<VertexId>(before.size()); ++v) {
    if (before[static_cast<std::size_t>(v)] !=
        after[static_cast<std::size_t>(v)]) {
      changed.push_back(v);
    }
  }
  return changed;
}

/// The shard axis: a dense step's verdict is the sum of score_range()
/// over the engine's shards, so the ranged sums over every split of
/// [0, n) must equal the checker's cached total.  The splits are the
/// engine's word-aligned bounds at 1, 2 and 8 shards, and one that cuts
/// inside the radius-1 balls of vertices 0 and n / 2.
template <class State, class Checker>
void expect_ranged_sums_match(const Graph& g, const Config<State>& cfg,
                              const Checker& checker,
                              const std::string& context) {
  const VertexId n = g.n();
  std::vector<std::vector<VertexId>> splits;
  for (const std::size_t shards : {1u, 2u, 8u}) {
    splits.push_back(parallel_detail::shard_bounds(n, shards));
  }
  splits.push_back({0, 1, n / 2, n / 2 + 1, n});
  for (const auto& bounds : splits) {
    std::int64_t total = 0;
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
      total += checker.score_range(g, cfg, bounds[k], bounds[k + 1]);
    }
    EXPECT_EQ(total, checker.total())
        << context << ", split at " << testing::PrintToString(bounds);
  }
}

/// Feeds a recorded trace through `checker` move by move and asserts the
/// incremental verdict equals the from-scratch one (checker.full on a
/// pristine copy), and the ranged sums equal the cached total, at every
/// configuration.  `start` skips prefix configs whose updates were
/// already fed (the corruption path re-enters with a warm checker).
template <class State, class Checker>
void walk_trace(const Graph& g, const std::vector<Config<State>>& trace,
                Checker& checker, Checker& oracle, std::size_t start = 0) {
  ASSERT_FALSE(trace.empty());
  if (start == 0) {
    const bool legit = checker.init(g, trace[0]);
    EXPECT_EQ(legit, oracle.full(g, trace[0])) << "config 0";
    expect_ranged_sums_match(g, trace[0], checker, "config 0");
  }
  for (std::size_t i = std::max<std::size_t>(start, 1); i < trace.size();
       ++i) {
    const auto changed = changed_vertices(trace[i - 1], trace[i]);
    const bool legit = checker.on_update(g, trace[i], changed);
    EXPECT_EQ(legit, oracle.full(g, trace[i])) << "config " << i;
    expect_ranged_sums_match(g, trace[i], checker,
                             "config " + std::to_string(i));
    if (::testing::Test::HasFailure()) return;
  }
}

/// Runs the reference engine with trace recording, walks the trace with
/// a warm checker, then corrupts single vertices of the final
/// configuration, feeds the corruption as an incremental update, and
/// walks a continuation run — legitimacy lost and regained end to end.
template <ProtocolConcept P, class Checker, class Corrupt>
void closure_property(const Graph& g, const P& proto,
                      Config<typename P::State> init, Checker checker,
                      Checker oracle, const std::string& daemon_name,
                      std::uint64_t seed, StepIndex max_steps,
                      Corrupt corrupt) {
  RunOptions opt;
  opt.max_steps = max_steps;
  opt.record_trace = true;

  auto daemon = make_daemon(daemon_name, seed);
  const auto res =
      run_execution(g, proto, *daemon, std::move(init), opt, nullptr);
  walk_trace(g, res.trace.materialize(), checker, oracle);
  if (::testing::Test::HasFailure()) return;

  // Corruption: a transient fault hits one vertex; the checker must track
  // it incrementally, then follow the re-stabilizing continuation.
  std::mt19937_64 rng(seed ^ 0xc0ffee);
  Config<typename P::State> cfg = res.final_config;
  const VertexId victim = static_cast<VertexId>(rng() % g.n());
  cfg[static_cast<std::size_t>(victim)] = corrupt(cfg, victim, rng);
  const bool legit = checker.on_update(g, cfg, {victim});
  EXPECT_EQ(legit, oracle.full(g, cfg)) << "after corrupting " << victim;
  expect_ranged_sums_match(g, cfg, checker,
                           "after corrupting " + std::to_string(victim));

  auto daemon2 = make_daemon(daemon_name, seed + 1);
  const auto cont =
      run_execution(g, proto, *daemon2, std::move(cfg), opt, nullptr);
  walk_trace(g, cont.trace.materialize(), checker, oracle, /*start=*/1);
}

std::vector<Graph> small_topologies() {
  std::vector<Graph> out;
  out.push_back(make_ring(9));
  out.push_back(make_path(8));
  out.push_back(make_grid(3, 3));
  // Three 64-vertex words, so the shard axis's 2- and 8-shard splits
  // are not all in one shard.
  out.push_back(make_ring(130));
  return out;
}

const std::vector<std::string>& closure_daemons() {
  static const std::vector<std::string> daemons = {"synchronous",
                                                   "bernoulli-0.5"};
  return daemons;
}

TEST(LegitimacyClosureTest, Gamma1) {
  for (const Graph& g : small_topologies()) {
    const SsmeProtocol proto = SsmeProtocol::for_graph(g);
    for (const auto& daemon : closure_daemons()) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        // Legitimate and arbitrary samples: zero_config is in Gamma_1.
        auto init = seed % 2 == 0 ? zero_config(g)
                                  : random_config(g, proto.clock(), seed);
        closure_property(
            g, proto, std::move(init), make_gamma1_checker(proto),
            make_gamma1_checker(proto), daemon, seed, 120,
            [&proto](const Config<ClockValue>&, VertexId,
                     std::mt19937_64& rng) {
              return static_cast<ClockValue>(
                  rng() % static_cast<std::uint64_t>(proto.params().k));
            });
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(LegitimacyClosureTest, MutexSafetyLostAndRegained) {
  // The two-gradient witness starts safe, goes unsafe (double privilege),
  // and stabilizes — the canonical re-convergence sequence.
  for (const Graph& g : small_topologies()) {
    const SsmeProtocol proto = SsmeProtocol::for_graph(g);
    for (const auto& daemon : closure_daemons()) {
      closure_property(
          g, proto, two_gradient_config(g, proto),
          make_mutex_safety_checker(proto), make_mutex_safety_checker(proto),
          daemon, 7, 150,
          [&proto](const Config<ClockValue>&, VertexId v, std::mt19937_64&) {
            // Plant a privileged value: maximally disruptive for spec_ME.
            return proto.params().privileged_value(v);
          });
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(LegitimacyClosureTest, SingleToken) {
  for (VertexId n : {5, 9, 130}) {
    const Graph g = make_ring(n);
    const DijkstraRingProtocol proto = DijkstraRingProtocol::for_ring(g);
    for (const auto& daemon : closure_daemons()) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        // Legitimate sample: all-equal counters (single token at the
        // bottom machine); otherwise the max-token adversarial config.
        Config<DijkstraRingProtocol::State> init(
            static_cast<std::size_t>(n),
            static_cast<DijkstraRingProtocol::State>(seed % proto.k()));
        if (seed % 2 == 0) init = proto.max_token_config();
        closure_property(
            g, proto, std::move(init), make_single_token_checker(proto),
            make_single_token_checker(proto), daemon, seed, 150,
            [&proto](const Config<DijkstraRingProtocol::State>&, VertexId,
                     std::mt19937_64& rng) {
              return static_cast<DijkstraRingProtocol::State>(
                  rng() % static_cast<std::uint64_t>(proto.k()));
            });
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(LegitimacyClosureTest, Matching) {
  for (const Graph& g : small_topologies()) {
    const MatchingProtocol proto;
    for (const auto& daemon : closure_daemons()) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        std::mt19937_64 rng(seed);
        Config<MatchingProtocol::State> init(static_cast<std::size_t>(g.n()));
        for (auto& p : init) {
          p = static_cast<MatchingProtocol::State>(
              static_cast<std::int64_t>(rng() % (g.n() + 4)) - 2);
        }
        closure_property(
            g, proto, std::move(init), make_matching_checker(proto),
            make_matching_checker(proto), daemon, seed, 200,
            [&g](const Config<MatchingProtocol::State>&, VertexId,
                 std::mt19937_64& rng2) {
              return static_cast<MatchingProtocol::State>(rng2() % g.n());
            });
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(LegitimacyClosureTest, MinPlusOneAndLeaderAndColoring) {
  for (const Graph& g : small_topologies()) {
    const MinPlusOneProtocol mpo(g);
    const LeaderElectionProtocol le(g);
    const ColoringProtocol col(g);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      // Legitimate samples for even seeds: the unique fixpoints.
      std::mt19937_64 rng(seed);
      Config<MinPlusOneProtocol::State> mpo_init = mpo.exact_levels();
      if (seed % 2) {
        for (auto& v : mpo_init) {
          v = static_cast<MinPlusOneProtocol::State>(rng() %
                                                     (mpo.level_cap() + 1));
        }
      }
      closure_property(
          g, mpo, std::move(mpo_init), make_min_plus_one_checker(mpo),
          make_min_plus_one_checker(mpo), "bernoulli-0.5", seed, 200,
          [&mpo](const Config<MinPlusOneProtocol::State>&, VertexId,
                 std::mt19937_64& rng2) {
            return static_cast<MinPlusOneProtocol::State>(
                rng2() % static_cast<std::uint64_t>(mpo.level_cap() + 1));
          });
      if (::testing::Test::HasFailure()) return;

      auto le_init = seed % 2 ? random_leader_config(g, seed)
                              : le.elected_config(g);
      closure_property(g, le, std::move(le_init),
                       make_leader_election_checker(le, g),
                       make_leader_election_checker(le, g), "bernoulli-0.5",
                       seed, 400,
                       [&g](const Config<LeaderState>&, VertexId,
                            std::mt19937_64& rng2) {
                         return LeaderState{
                             static_cast<std::int32_t>(rng2() % 5) - 2,
                             static_cast<std::int32_t>(rng2() % g.n())};
                       });
      if (::testing::Test::HasFailure()) return;

      closure_property(
          g, col, random_coloring_config(g, col.palette_size(), seed),
          make_coloring_checker(col), make_coloring_checker(col),
          "bernoulli-0.5", seed, 200,
          [&col](const Config<ColoringProtocol::State>&, VertexId,
                 std::mt19937_64& rng2) {
            return static_cast<ColoringProtocol::State>(
                static_cast<std::int64_t>(
                    rng2() % static_cast<std::uint64_t>(
                                 3 * col.palette_size())) -
                col.palette_size());
          });
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(LegitimacyClosureTest, UnboundedUnison) {
  const UnboundedUnisonProtocol proto;
  for (const Graph& g : small_topologies()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      std::mt19937_64 rng(seed);
      Config<UnboundedUnisonProtocol::State> init(
          static_cast<std::size_t>(g.n()));
      // Legitimate sample for even seeds: the all-equal configuration.
      for (auto& v : init) {
        v = seed % 2 ? static_cast<std::int64_t>(rng() % 16) : 7;
      }
      closure_property(
          g, proto, std::move(init), make_unbounded_unison_checker(proto),
          make_unbounded_unison_checker(proto), "bernoulli-0.5", seed, 200,
          [](const Config<UnboundedUnisonProtocol::State>&, VertexId,
             std::mt19937_64& rng2) {
            return static_cast<std::int64_t>(rng2() % 40);
          });
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(LegitimacyClosureTest, CheckerReusableAcrossGraphSizes) {
  // One checker instance serves runs on graphs of different sizes
  // (measure_convergence's contract): init() must fully rebuild the
  // caches and the radius-ball expander for the new vertex count.  The
  // unbounded-unison checker is graph-agnostic, so the same instance
  // legitimately moves between graphs.
  const UnboundedUnisonProtocol proto;
  auto checker = make_unbounded_unison_checker(proto);

  const Graph small = make_ring(6);
  Config<UnboundedUnisonProtocol::State> cfg(6, 0);
  checker.init(small, cfg);
  cfg[3] = 9;
  checker.on_update(small, cfg, {3});
  EXPECT_FALSE(checker.on_update(small, cfg, {3}));

  // Same instance, bigger graph: updates must touch vertices beyond the
  // small graph's range without corruption (ASan-visible if broken).
  const Graph large = make_ring(24);
  Config<UnboundedUnisonProtocol::State> big(24, 1);
  EXPECT_TRUE(checker.init(large, big));
  for (VertexId v : {VertexId{23}, VertexId{12}}) {
    big[static_cast<std::size_t>(v)] = 40 + v;
    checker.on_update(large, big, {v});
  }
  std::int64_t expected = 0;
  for (VertexId v = 0; v < large.n(); ++v) {
    for (VertexId u : large.neighbors(v)) {
      const auto d = big[static_cast<std::size_t>(v)] -
                     big[static_cast<std::size_t>(u)];
      if (d > 1 || d < -1) ++expected;
    }
  }
  EXPECT_EQ(checker.total(), expected);
}

TEST(LegitimacyClosureTest, CachedTotalMatchesFromScratchSum) {
  // White-box: the cached violation total itself (not only the verdict)
  // must equal the from-scratch sum after a long randomized update walk.
  const Graph g = make_grid(3, 4);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  auto checker = make_gamma1_checker(proto);
  auto cfg = random_config(g, proto.clock(), 99);
  checker.init(g, cfg);
  std::mt19937_64 rng(1234);
  for (int step = 0; step < 500; ++step) {
    const VertexId v = static_cast<VertexId>(rng() % g.n());
    cfg[static_cast<std::size_t>(v)] = static_cast<ClockValue>(
        rng() % static_cast<std::uint64_t>(proto.params().k));
    checker.on_update(g, cfg, {v});
    std::int64_t expected = 0;
    for (VertexId w = 0; w < g.n(); ++w) {
      expected += proto.unison().locally_legitimate(g, cfg, w) ? 0 : 1;
    }
    ASSERT_EQ(checker.total(), expected) << "step " << step;
  }
}

}  // namespace
}  // namespace specstab
