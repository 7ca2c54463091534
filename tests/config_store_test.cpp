// ConfigStore suite: the production engine's configuration storage.
//
// Every state is stored as one vector, in the engine and in the reference
// engine alike, so the typed differentials below hold leader election's
// struct states in the engine's store against the oracle's vector —
// printed final states, every meter and the complete delta trace must
// match:
//   - the sharded segment fill of dense installs (dense_fill_range) and
//     the whole-column swap-in of synchronous steps on a word-misaligned
//     thread grid;
//   - leader election end to end, traces included;
//   - ConfigStore unit semantics (set/get round trips, swap_in, the
//     ranged dense install vs a naive apply, take()/materialize()) on a
//     struct state and an arithmetic one.
// The test names keep the words "layouts" and "columns" from when
// LeaderState was stored as member columns; the layout axis now has one
// value.
#include <cstdint>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/incremental_legitimacy.hpp"
#include "extensions/leader_election.hpp"
#include "graph/generators.hpp"
#include "sim/config_store.hpp"
#include "sim/daemon.hpp"
#include "sim/parallel_engine.hpp"

namespace specstab {
namespace {

// A view is one pointer, cheap to pass and copy.
static_assert(std::is_trivially_copyable_v<ConfigView<LeaderState>>);
static_assert(sizeof(ConfigView<LeaderState>) == sizeof(void*));

template <class State>
void expect_same_run(const RunResult<State>& a, const RunResult<State>& b,
                     const std::string& label) {
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.moves, b.moves) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.terminated, b.terminated) << label;
  EXPECT_EQ(a.hit_step_cap, b.hit_step_cap) << label;
  EXPECT_EQ(a.first_legitimate, b.first_legitimate) << label;
  EXPECT_EQ(a.last_illegitimate, b.last_illegitimate) << label;
  EXPECT_EQ(a.moves_to_convergence, b.moves_to_convergence) << label;
  EXPECT_EQ(a.rounds_to_convergence, b.rounds_to_convergence) << label;
  EXPECT_TRUE(a.final_config == b.final_config) << label;
  EXPECT_TRUE(a.trace == b.trace) << label;
}

/// One leader-election run with the leader checker and a full trace.
RunResult<LeaderState> run_leader(const Graph& g,
                                  const LeaderElectionProtocol& proto,
                                  const std::string& daemon_name,
                                  std::uint64_t seed, EngineKind engine,
                                  unsigned threads) {
  RunOptions opt;
  opt.engine = engine;
  opt.threads = threads;
  opt.max_steps = 20000;
  opt.record_trace = true;
  const auto daemon = make_daemon(daemon_name, seed);
  auto checker = make_leader_election_checker(proto, g);
  return run_with_engine(g, proto, *daemon, random_leader_config(g, seed), opt,
                         checker);
}

// --- Typed differential: the engine's store vs the oracle's vector ----

TEST(LayoutAgreement, FusedParallelThreadGridAgreesAcrossLayouts) {
  // Synchronous steps swap the kernel's fresh successor column in whole;
  // Bernoulli steps fill segments per shard (dense_fill_range) — a torn
  // segment or a stale swapped column shows up as a final-config or
  // trace mismatch against the oracle's vector.  Graph sizes straddle
  // the 64-vertex word boundary (97, 130) so shards get unequal word
  // counts at every thread value.
  for (const Graph& g :
       {make_ring(130), make_random_connected(97, 0.05, 13)}) {
    const LeaderElectionProtocol proto(g);
    for (const std::string& daemon_name :
         {std::string("synchronous"), std::string("bernoulli-0.5")}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const auto base = run_leader(g, proto, daemon_name, seed,
                                     EngineKind::kReference, 1);
        EXPECT_TRUE(base.terminated);
        for (const unsigned threads : {1u, 2u, 8u}) {
          const auto got = run_leader(g, proto, daemon_name, seed,
                                      EngineKind::kIncremental, threads);
          expect_same_run(base, got,
                          "n=" + std::to_string(g.n()) + " " + daemon_name +
                              " seed " + std::to_string(seed) + " engine-t" +
                              std::to_string(threads));
        }
      }
    }
  }
}

TEST(LayoutAgreement, LeaderColumnsAgreeWithAoSIncludingTraces) {
  const Graph g = make_random_connected(24, 0.2, 9);
  const LeaderElectionProtocol proto(g);
  for (const std::string& daemon_name :
       {std::string("synchronous"), std::string("central-rr"),
        std::string("bernoulli-0.5")}) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      const auto base =
          run_leader(g, proto, daemon_name, seed, EngineKind::kReference, 1);
      EXPECT_TRUE(base.converged());
      for (const unsigned threads : {1u, 2u, 8u}) {
        expect_same_run(base,
                        run_leader(g, proto, daemon_name, seed,
                                   EngineKind::kIncremental, threads),
                        daemon_name + " seed " + std::to_string(seed) +
                            " threads " + std::to_string(threads));
      }
    }
  }
}

// --- ConfigStore unit semantics ---------------------------------------

Config<std::int32_t> random_ints(const Graph& g, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Config<std::int32_t> cfg(static_cast<std::size_t>(g.n()));
  for (auto& c : cfg) c = static_cast<std::int32_t>(rng() % 17);
  return cfg;
}

/// Store round trips for one state type: reads through the store's view
/// and a plain vector's view, set(), swap_in() and take().  `other` is a
/// state the initial configuration does not hold at vertex 2.
template <class State>
void expect_round_trips(const Config<State>& init, const State& other) {
  ConfigStore<State> store(init);
  const ConfigView<State> view = store.view();
  // A plain vector (the oracle's configuration) reads the same states.
  const ConfigView<State> vec_view(init);
  ASSERT_EQ(view.size(), init.size());
  for (std::size_t i = 0; i < init.size(); ++i) {
    EXPECT_TRUE(view.get(i) == init[i]);
    EXPECT_TRUE(view.column()[i] == init[i]);
    EXPECT_TRUE(vec_view.column()[i] == init[i]);
  }
  EXPECT_EQ(vec_view.column(), init.data());
  store.set(2, other);
  EXPECT_TRUE(store.get(2) == other);
  EXPECT_TRUE(view.column()[2] == other);
  EXPECT_TRUE(store.materialize() != init);
  Config<State> expected = init;
  expected[2] = other;
  EXPECT_TRUE(store.materialize() == expected);
  // swap_in installs a whole configuration; the view follows it.
  Config<State> next(init.size(), other);
  store.swap_in(next);
  EXPECT_TRUE(next == expected);  // the previous configuration comes back
  EXPECT_TRUE(view.get(0) == other);
  EXPECT_TRUE(store.take() == Config<State>(init.size(), other));
}

TEST(ConfigStore, RoundTripsAndFieldAccessAcrossLayouts) {
  const Graph g = make_ring(6);
  expect_round_trips(random_leader_config(g, 3), LeaderState{-5, 9});
  expect_round_trips(random_ints(g, 3), std::int32_t{-5});
}

/// The engine's dense install against a naive apply of `successor`
/// (a function of the configuration and a vertex): successors staged
/// against the live configuration, then merged into the inactive buffers
/// over two ranges that split the activated set ([0, 5) holds
/// activated[0..3)).
template <class State, class Successor>
void expect_dense_apply_matches_naive(const Config<State>& init,
                                      Successor successor) {
  const std::vector<VertexId> activated = {0, 3, 4, 7, 9};
  Config<State> expected = init;
  for (VertexId v : activated) {
    expected[static_cast<std::size_t>(v)] = successor(init, v);
  }

  ConfigStore<State> store(init);
  const ConfigView<State> live = store.view();
  std::vector<State> staged;
  for (VertexId v : activated) staged.push_back(successor(live, v));
  store.dense_begin();
  store.dense_fill_range(activated, staged.data(), 0, 3, 0, 5);
  store.dense_fill_range(activated, staged.data(), 3, activated.size(), 5,
                         init.size());
  // Until the commit the live view still reads the pre-step
  // configuration (trace recording relies on it).
  EXPECT_TRUE(live.materialize() == init);
  store.dense_commit();
  EXPECT_TRUE(live.materialize() == expected);
  EXPECT_TRUE(store.materialize() == expected);
}

TEST(ConfigStore, DenseApplyMatchesNaiveApply) {
  const Graph g = make_ring(10);
  const LeaderElectionProtocol proto(g);
  expect_dense_apply_matches_naive(
      random_leader_config(g, 11),
      [&](const ConfigView<LeaderState>& cfg, VertexId v) {
        return proto.apply(g, cfg, v);
      });
  // Sum with the successor on the ring: reads a neighbour's state.
  expect_dense_apply_matches_naive(
      random_ints(g, 11), [&](const ConfigView<std::int32_t>& cfg, VertexId v) {
        return cfg[static_cast<std::size_t>(v)] +
               cfg[static_cast<std::size_t>((v + 1) % g.n())];
      });
}

}  // namespace
}  // namespace specstab
