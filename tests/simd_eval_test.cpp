// Kernel contract suite: every SimdEval specialization against its
// protocol's scalar code, with no engine in between.  For each vertex v
// of each range a kernel call covers, the contract is
//
//   out[v]  == proto.enabled(g, cfg, v),
//   next[v] == out[v] ? proto.apply(g, cfg, v) : cfg[v],
//
// and a scored kernel's summed range totals equal the from-scratch
// violation total of the checker with the same ScoreKind.  The engine's
// differential suites only see a kernel through whole runs, where a
// wrong successor of a rarely enabled vertex can stay hidden; here each
// protocol meets random, legitimate and corrupted configurations
// (registers outside the cherry, stem values, K - 1, and INT32 extremes
// wherever the scalar code defines them) on ring, path, star, grid,
// torus, random, hypercube and single-vertex graphs, called over the
// whole range and over the word-aligned shard splits the engine uses.
// The lattice stencil that routes ring, path, grid and torus interiors
// onto the unison kernel's lane groups is pinned per graph as well, and
// each of that kernel's tiers (four lanes, and eight on an AVX2 host) is
// held to the scalar code over ranges cut at every offset near both ends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "baselines/dijkstra_ring.hpp"
#include "baselines/min_plus_one.hpp"
#include "baselines/unbounded_unison.hpp"
#include "core/adversarial_configs.hpp"
#include "core/incremental_legitimacy.hpp"
#include "core/ssme.hpp"
#include "extensions/leader_election.hpp"
#include "graph/generators.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/simd_eval.hpp"
#include "unison/unison.hpp"

namespace specstab {
namespace {

constexpr std::int32_t kI32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kI32Max = std::numeric_limits<std::int32_t>::max();

struct NamedGraph {
  std::string name;
  Graph g;
};

/// Every topology family of the suite; sizes straddle 64-vertex words so
/// the shard splits cut inside the graph.
std::vector<NamedGraph> topologies() {
  std::vector<NamedGraph> out;
  out.push_back({"ring-130", make_ring(130)});
  out.push_back({"path-97", make_path(97)});
  out.push_back({"star-70", make_star(70)});
  out.push_back({"torus-9x11", make_torus(9, 11)});
  out.push_back({"random-150", make_random_connected(150, 0.03, 11)});
  out.push_back({"single", make_path(1)});
  out.push_back({"grid-7x13", make_grid(7, 13)});
  out.push_back({"hypercube-7", make_hypercube(7)});
  return out;
}

/// The range partitions each configuration is evaluated under: the whole
/// range, then the engine's word-aligned shard bounds at 2, 3 and 8
/// shards (small graphs leave trailing shards empty).
std::vector<std::vector<VertexId>> range_splits(VertexId n) {
  std::vector<std::vector<VertexId>> out = {{0, n}};
  for (const std::size_t shards : {2u, 3u, 8u}) {
    out.push_back(parallel_detail::shard_bounds(n, shards));
  }
  return out;
}

/// Runs P's kernel (both entry points when it has a scored one) over
/// every split of `init`, read through the engine's ConfigStore, and
/// checks the contract.  `expected_score` is the from-scratch violation
/// total a scored kernel must reproduce (ignored for unscored kernels).
template <class P>
void expect_contract(const Graph& g, const P& proto,
                     const Config<typename P::State>& init,
                     std::int64_t expected_score, const std::string& ctx) {
  using State = typename P::State;
  static_assert(HasSimdEval<P>);
  const auto n = static_cast<std::size_t>(g.n());
  ASSERT_EQ(init.size(), n) << ctx;
  const auto kernel_ctx = SimdEval<P>::make_context(g, proto);
  const ConfigStore<State> store(init);
  const ConfigView<State> cfg = store.view();
  // The synchronous successor of every vertex, from the scalar code.
  std::vector<bool> enabled(n);
  std::vector<State> successor(n);
  for (VertexId v = 0; v < g.n(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    enabled[i] = proto.enabled(g, cfg, v);
    successor[i] = enabled[i] ? proto.apply(g, cfg, v) : cfg[i];
  }
  for (const auto& bounds : range_splits(g.n())) {
    for (const bool scored : {false, true}) {
      if (scored && !HasScoredSimdEval<P>) continue;
      const std::string where = ctx + " shards=" +
                                std::to_string(bounds.size() - 1) +
                                (scored ? " scored" : "");
      // Poisoned outputs: an entry the kernel fails to write cannot
      // pass for a correct one.
      std::vector<std::uint8_t> out(n, 0xAB);
      std::vector<State> next(n);
      std::memset(static_cast<void*>(next.data()), 0xA5, n * sizeof(State));
      std::int64_t total = 0;
      for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
        if constexpr (HasScoredSimdEval<P>) {
          if (scored) {
            total += SimdEval<P>::enabled_bytes_scored(
                kernel_ctx, proto, cfg, out.data(), next.data(), bounds[k],
                bounds[k + 1]);
            continue;
          }
        }
        SimdEval<P>::enabled_bytes(kernel_ctx, proto, cfg, out.data(),
                                   next.data(), bounds[k], bounds[k + 1]);
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], enabled[i] ? 1 : 0) << where << " v=" << i;
        ASSERT_TRUE(next[i] == successor[i])
            << where << " v=" << i << (enabled[i] ? " enabled" : "");
      }
      if (scored) {
        EXPECT_EQ(total, expected_score) << where;
      }
    }
  }
}

/// The from-scratch Gamma_1 violation total (the checker's per-vertex
/// scores summed by init()).
std::int64_t gamma1_score(const Graph& g, const UnisonProtocol& proto,
                          const Config<ClockValue>& cfg) {
  auto checker = make_gamma1_checker(proto);
  checker.init(g, cfg);
  return checker.total();
}

/// A value from the corners of the cherry and beyond: below the stem,
/// the stem's ends, 0, K - 1, K, far outside, and the INT32 extremes.
ClockValue corner_value(const CherryClock& clock, std::mt19937_64& rng) {
  const ClockValue a = clock.alpha();
  const ClockValue k = clock.k();
  const ClockValue picks[] = {-a - 1, -a,     -1, 0,      1,
                              k - 2,  k - 1,  k,  k + 7,  kI32Min,
                              kI32Max, -a / 2};
  std::uniform_int_distribution<std::size_t> pick(0, std::size(picks) - 1);
  return picks[pick(rng)];
}

/// The clock configurations every unison-family kernel meets.
std::vector<std::pair<std::string, Config<ClockValue>>> clock_configs(
    const Graph& g, const CherryClock& clock, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(g.n());
  std::vector<std::pair<std::string, Config<ClockValue>>> out;
  for (std::uint64_t s = 0; s < 3; ++s) {
    out.emplace_back("random#" + std::to_string(s),
                     random_config(g, clock, seed + s));
  }
  out.emplace_back("zero", zero_config(g));
  // Legitimate configurations across the wrap: every register K - 1
  // (all NA-enabled, each successor wraps to 0), and K - 1 beside 0.
  out.emplace_back("all-K-1", Config<ClockValue>(n, clock.k() - 1));
  Config<ClockValue> wrap(n);
  for (std::size_t i = 0; i < n; ++i) {
    wrap[i] = i % 3 == 0 ? 0 : clock.k() - 1;
  }
  out.emplace_back("wrap", wrap);
  // The whole stem (CA climbs, RA resets land on -alpha).
  Config<ClockValue> stem(n);
  for (std::size_t i = 0; i < n; ++i) {
    stem[i] = -static_cast<ClockValue>(i % static_cast<std::size_t>(
                                           clock.alpha() + 1));
  }
  out.emplace_back("stem", stem);
  std::mt19937_64 rng(seed);
  for (int s = 0; s < 3; ++s) {
    Config<ClockValue> corrupted = random_config(g, clock, seed + 10 + s);
    std::bernoulli_distribution hit(0.4);
    for (auto& r : corrupted) {
      if (hit(rng)) r = corner_value(clock, rng);
    }
    out.emplace_back("corrupted#" + std::to_string(s), corrupted);
  }
  return out;
}

/// The border vertices of a rows x cols grid or torus, ascending.
std::vector<VertexId> border(VertexId rows, VertexId cols) {
  std::vector<VertexId> out;
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (r == 0 || r == rows - 1 || c == 0 || c == cols - 1) {
        out.push_back(r * cols + c);
      }
    }
  }
  return out;
}

TEST(SimdEvalTest, LatticeStencilFollowsTheGraph) {
  struct Expected {
    std::string name;
    Graph g;
    std::vector<std::int32_t> offsets;
    std::vector<VertexId> irregular;
  };
  const std::vector<Expected> cases = {
      {"ring-130", make_ring(130), {-1, 1}, {0, 129}},
      {"path-97", make_path(97), {-1, 1}, {0, 96}},
      {"grid-7x13", make_grid(7, 13), {-13, -1, 1, 13}, border(7, 13)},
      {"torus-9x11", make_torus(9, 11), {-11, -1, 1, 11}, border(9, 11)},
      {"star-70", make_star(70), {}, {}},
      {"random-150", make_random_connected(150, 0.03, 11), {}, {}},
      {"hypercube-7", make_hypercube(7), {}, {}},
      {"single", make_path(1), {}, {}},
  };
  for (const auto& [name, g, offsets, irregular] : cases) {
    const LatticeStencil lattice = lattice_stencil(g);
    EXPECT_EQ(lattice.offsets, offsets) << name;
    EXPECT_EQ(lattice.irregular, irregular) << name;
  }
  EXPECT_EQ(border(7, 13).size(), 36u);
  EXPECT_EQ(border(9, 11).size(), 36u);
  // On every kernel input, a vertex is off the list iff its neighbours
  // are exactly v + offsets[j].
  for (const auto& [name, g] : topologies()) {
    const LatticeStencil lattice = lattice_stencil(g);
    if (lattice.offsets.empty()) continue;
    for (VertexId v = 0; v < g.n(); ++v) {
      std::vector<VertexId> shifted;
      for (const std::int32_t delta : lattice.offsets) {
        shifted.push_back(v + delta);
      }
      const auto& irr = lattice.irregular;
      const bool listed = std::binary_search(irr.begin(), irr.end(), v);
      EXPECT_EQ(!std::ranges::equal(g.neighbors(v), shifted), listed)
          << name << " v=" << v;
    }
  }
}

TEST(KernelContract, Unison) {
  for (const auto& [name, g] : topologies()) {
    // SSME's clock for the graph, plus small clocks whose K - 1 wrap and
    // stem bottom are hit by most random registers.
    std::vector<CherryClock> clocks = {SsmeProtocol::for_graph(g).clock(),
                                       CherryClock(3, 4), CherryClock(1, 2)};
    for (const CherryClock& clock : clocks) {
      const UnisonProtocol proto(clock);
      for (const auto& [cfg_name, cfg] : clock_configs(g, clock, 7)) {
        expect_contract(g, proto, cfg, gamma1_score(g, proto, cfg),
                        name + " " + clock.describe() + " " + cfg_name);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

using LatticeTier = std::int64_t (*)(const SimdEval<UnisonProtocol>::Context&,
                                     const UnisonProtocol&,
                                     const ConfigView<ClockValue>&,
                                     std::uint8_t*, ClockValue*, VertexId,
                                     VertexId);

/// The unison lattice kernel's tiers this host can run: four lanes
/// always, eight where the CPU has AVX2.
std::vector<std::pair<std::string, LatticeTier>> lattice_tiers() {
  std::vector<std::pair<std::string, LatticeTier>> out = {
      {"4-lane", &unison_detail::enabled_bytes_scored_4lane}};
#if SPECSTAB_LATTICE_AVX2
  if (__builtin_cpu_supports("avx2")) {
    out.emplace_back("8-lane", &unison_detail::enabled_bytes_scored_8lane);
  }
#endif
  return out;
}

TEST(KernelContract, UnisonRunsTheWidestTierTheCpuHas) {
#if SPECSTAB_LATTICE_AVX2
  EXPECT_EQ(unison_detail::lattice_lanes(),
            __builtin_cpu_supports("avx2") ? 8 : 4);
#else
  EXPECT_EQ(unison_detail::lattice_lanes(), 4);
#endif
}

TEST(KernelContract, UnisonLatticeTiersOnEveryCut) {
  // Each tier, called directly, over [b, n - e) for every b and e in
  // [0, 16): the lane groups, the eight-lane tier's trailing four-lane
  // group and the scalar tail each start and stop at run starts, run
  // ends and irregular vertices.  Entries outside the range must stay
  // untouched.
  const auto tiers = lattice_tiers();
  for (const auto& [name, g] : topologies()) {
    if (lattice_stencil(g).offsets.empty()) continue;
    const auto n = static_cast<std::size_t>(g.n());
    std::vector<CherryClock> clocks = {SsmeProtocol::for_graph(g).clock(),
                                       CherryClock(3, 4), CherryClock(1, 2)};
    for (const CherryClock& clock : clocks) {
      const UnisonProtocol proto(clock);
      const auto ctx = SimdEval<UnisonProtocol>::make_context(g, proto);
      const auto checker = make_gamma1_checker(proto);
      for (const auto& [cfg_name, init] : clock_configs(g, clock, 7)) {
        const std::string at = name + " " + clock.describe() + " " + cfg_name;
        const ConfigStore<ClockValue> store(init);
        const ConfigView<ClockValue> cfg = store.view();
        std::vector<std::uint8_t> enabled(n);
        std::vector<ClockValue> successor(n);
        for (VertexId v = 0; v < g.n(); ++v) {
          const auto i = static_cast<std::size_t>(v);
          enabled[i] = proto.enabled(g, cfg, v) ? 1 : 0;
          successor[i] = enabled[i] != 0 ? proto.apply(g, cfg, v) : cfg[i];
        }
        for (const auto& [tier_name, tier] : tiers) {
          for (VertexId b = 0; b < 16; ++b) {
            for (VertexId e = 0; e < 16 && b <= g.n() - e; ++e) {
              const VertexId end = g.n() - e;
              const std::string where = tier_name + " " + at + " [" +
                                        std::to_string(b) + ", " +
                                        std::to_string(end) + ")";
              std::vector<std::uint8_t> out(n, 0xAB);
              std::vector<ClockValue> next(n, kI32Min + 5);
              const std::int64_t total =
                  tier(ctx, proto, cfg, out.data(), next.data(), b, end);
              ASSERT_EQ(total, checker.score_range(g, cfg, b, end)) << where;
              for (VertexId v = 0; v < g.n(); ++v) {
                const auto i = static_cast<std::size_t>(v);
                const bool inside = v >= b && v < end;
                ASSERT_EQ(out[i], inside ? enabled[i] : 0xAB)
                    << where << " v=" << v;
                ASSERT_EQ(next[i], inside ? successor[i] : kI32Min + 5)
                    << where << " v=" << v;
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelContract, Ssme) {
  for (const auto& [name, g] : topologies()) {
    const SsmeProtocol proto = SsmeProtocol::for_graph(g);
    auto cfgs = clock_configs(g, proto.clock(), 21);
    if (g.n() > 1) {
      cfgs.emplace_back("two-gradient", two_gradient_config(g, proto));
    }
    for (const auto& [cfg_name, cfg] : cfgs) {
      expect_contract(g, proto, cfg, gamma1_score(g, proto.unison(), cfg),
                      name + " " + cfg_name);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(KernelContract, UnboundedUnison) {
  // apply() is c_v + 1, so INT64_MAX is left out (its increment is
  // undefined in the scalar code); INT64_MAX - 1 and the lower extremes
  // stay in.
  constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
  const UnboundedUnisonProtocol proto;
  for (const auto& [name, g] : topologies()) {
    const auto n = static_cast<std::size_t>(g.n());
    std::mt19937_64 rng(33);
    std::vector<std::pair<std::string, Config<std::int64_t>>> cfgs;
    Config<std::int64_t> random(n);
    std::uniform_int_distribution<std::int64_t> small(-5, 20);
    for (auto& c : random) c = small(rng);
    cfgs.emplace_back("random", random);
    cfgs.emplace_back("flat", Config<std::int64_t>(n, 4));
    Config<std::int64_t> gradient(n);
    for (std::size_t i = 0; i < n; ++i) {
      gradient[i] = static_cast<std::int64_t>(i);
    }
    cfgs.emplace_back("gradient", gradient);
    const std::int64_t picks[] = {kI64Min, kI32Min, kI32Max, kI64Max - 1, 0};
    Config<std::int64_t> corrupted = random;
    std::uniform_int_distribution<std::size_t> pick(0, std::size(picks) - 1);
    for (auto& c : corrupted) {
      if (rng() % 2 == 0) c = picks[pick(rng)];
    }
    cfgs.emplace_back("corrupted", corrupted);
    cfgs.emplace_back("all-max-1", Config<std::int64_t>(n, kI64Max - 1));
    for (const auto& [cfg_name, cfg] : cfgs) {
      expect_contract(g, proto, cfg, 0, name + " " + cfg_name);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(KernelContract, DijkstraRing) {
  // The protocol is defined on rings only (n >= 3 for make_ring), so the
  // other families and n = 1 do not apply.  The bottom machine's
  // successor is (c_{n-1} + 1) mod K, undefined in the scalar code for
  // c_{n-1} = INT32_MAX, so that one register avoids it.
  for (const VertexId n : {3, 63, 64, 65, 130}) {
    const Graph g = make_ring(n);
    const auto un = static_cast<std::size_t>(n);
    const DijkstraRingProtocol proto = DijkstraRingProtocol::for_ring(g);
    std::mt19937_64 rng(static_cast<std::uint64_t>(n));
    std::vector<std::pair<std::string, Config<std::int32_t>>> cfgs;
    std::uniform_int_distribution<std::int32_t> counter(0, proto.k() - 1);
    Config<std::int32_t> random(un);
    for (auto& c : random) c = counter(rng);
    cfgs.emplace_back("random", random);
    cfgs.emplace_back("single-token", Config<std::int32_t>(un, 2));
    cfgs.emplace_back("bottom-wraps", Config<std::int32_t>(un, proto.k() - 1));
    cfgs.emplace_back("max-tokens", proto.max_token_config());
    const std::int32_t picks[] = {kI32Min, -1, proto.k(), proto.k() - 1,
                                  kI32Max};
    std::uniform_int_distribution<std::size_t> pick(0, std::size(picks) - 1);
    for (int s = 0; s < 3; ++s) {
      Config<std::int32_t> corrupted = random;
      for (auto& c : corrupted) {
        if (rng() % 2 == 0) c = picks[pick(rng)];
      }
      if (corrupted[un - 1] == kI32Max) corrupted[un - 1] = kI32Max - 1;
      cfgs.emplace_back("corrupted#" + std::to_string(s), corrupted);
    }
    Config<std::int32_t> negative_bottom(un, -7);  // (-7 + 1) % K < 0
    cfgs.emplace_back("negative", negative_bottom);
    for (const auto& [cfg_name, cfg] : cfgs) {
      expect_contract(g, proto, cfg, 0,
                      "ring-" + std::to_string(n) + " " + cfg_name);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(KernelContract, MinPlusOne) {
  for (const auto& [name, g] : topologies()) {
    const auto n = static_cast<std::size_t>(g.n());
    for (const VertexId root : {VertexId{0}, g.n() - 1}) {
      const MinPlusOneProtocol proto(g, root);
      std::mt19937_64 rng(static_cast<std::uint64_t>(root) + 5);
      std::vector<std::pair<std::string, Config<std::int32_t>>> cfgs;
      std::uniform_int_distribution<std::int32_t> level(0, g.n());
      Config<std::int32_t> random(n);
      for (auto& c : random) c = level(rng);
      cfgs.emplace_back("random", random);
      cfgs.emplace_back("exact", proto.exact_levels());
      cfgs.emplace_back("all-cap", Config<std::int32_t>(n, proto.level_cap()));
      const std::int32_t picks[] = {kI32Min, -1, proto.level_cap() + 3,
                                    kI32Max, kI32Max - 1};
      std::uniform_int_distribution<std::size_t> pick(0, std::size(picks) - 1);
      Config<std::int32_t> corrupted = random;
      for (auto& c : corrupted) {
        if (rng() % 2 == 0) c = picks[pick(rng)];
      }
      cfgs.emplace_back("corrupted", corrupted);
      cfgs.emplace_back("all-max", Config<std::int32_t>(n, kI32Max));
      for (const auto& [cfg_name, cfg] : cfgs) {
        expect_contract(g, proto, cfg, 0,
                        name + " root=" + std::to_string(root) + " " +
                            cfg_name);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(KernelContract, LeaderElection) {
  // A distance of INT32_MAX makes the scalar candidate dist_u + 1
  // overflow, so corrupted distances stop one short of it; identities
  // and believed leaders take both INT32 extremes.
  for (const auto& [name, g] : topologies()) {
    const auto n = static_cast<std::size_t>(g.n());
    std::vector<std::int32_t> spread_ids(n);
    for (std::size_t i = 0; i < n; ++i) {
      spread_ids[i] = i % 2 == 0 ? kI32Max - static_cast<std::int32_t>(i)
                                 : kI32Min + static_cast<std::int32_t>(i);
    }
    const LeaderElectionProtocol default_ids(g);
    const LeaderElectionProtocol extreme_ids(g, spread_ids);
    for (const LeaderElectionProtocol* proto : {&default_ids, &extreme_ids}) {
      std::mt19937_64 rng(n + (proto == &default_ids ? 0 : 1));
      std::vector<std::pair<std::string, Config<LeaderState>>> cfgs;
      cfgs.emplace_back("random", random_leader_config(g, 3));
      cfgs.emplace_back("elected", proto->elected_config(g));
      cfgs.emplace_back("ghost-near",
                        ghost_leader_config(g, *proto, 0));
      cfgs.emplace_back("ghost-far", ghost_leader_config(
                                         g, *proto,
                                         static_cast<std::int32_t>(n) - 1));
      const auto bound = static_cast<std::int32_t>(n);
      const std::int32_t leaders[] = {kI32Min, kI32Max, -1, 0, 5};
      const std::int32_t dists[] = {kI32Min,   -1,        0,
                                    bound - 2, bound - 1, bound,
                                    kI32Max - 1};
      std::uniform_int_distribution<std::size_t> pick_leader(
          0, std::size(leaders) - 1);
      std::uniform_int_distribution<std::size_t> pick_dist(
          0, std::size(dists) - 1);
      for (int s = 0; s < 3; ++s) {
        Config<LeaderState> corrupted = random_leader_config(g, 40 + s);
        for (auto& st : corrupted) {
          if (rng() % 2 == 0) st.leader = leaders[pick_leader(rng)];
          if (rng() % 2 == 0) st.dist = dists[pick_dist(rng)];
        }
        cfgs.emplace_back("corrupted#" + std::to_string(s), corrupted);
      }
      for (const auto& [cfg_name, cfg] : cfgs) {
        const std::string ids =
            proto == &default_ids ? " ids=v " : " ids=extreme ";
        expect_contract(g, *proto, cfg, 0, name + ids + cfg_name);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace specstab
