// Locality cross-check: brute-forces the true guard-dependency radius of
// every protocol on small graphs and asserts it is <= the declared
// locality_radius().  The production engine re-tests guards only inside
// the declared radius after a sparse step, so a protocol that
// understates its radius would silently corrupt the enabled set — this
// test makes that fail loudly instead (demonstrated on a genuinely 2-hop
// protocol declaring radius 1).
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "baselines/dijkstra_ring.hpp"
#include "baselines/matching.hpp"
#include "baselines/min_plus_one.hpp"
#include "baselines/unbounded_unison.hpp"
#include "core/adversarial_configs.hpp"
#include "core/ssme.hpp"
#include "extensions/coloring.hpp"
#include "extensions/leader_election.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "sim/protocol.hpp"
#include "test_protocols.hpp"

namespace specstab {
namespace {

/// True iff some mutation outside the declared radius ball around some
/// vertex v changes enabled(v) (or the successor state of an enabled v):
/// a counterexample to the declared locality.
template <ProtocolConcept P, class MutateFn>
bool find_locality_violation(const Graph& g, const P& proto,
                             Config<typename P::State> cfg,
                             MutateFn mutate, std::mt19937_64& rng,
                             int mutations_per_pair) {
  const VertexId radius = protocol_locality_radius(proto);
  for (VertexId v = 0; v < g.n(); ++v) {
    const auto dist = bfs_distances(g, v);
    const bool was_enabled = proto.enabled(g, cfg, v);
    const auto was_successor =
        was_enabled ? proto.apply(g, cfg, v) : typename P::State{};
    for (VertexId w = 0; w < g.n(); ++w) {
      if (dist[static_cast<std::size_t>(w)] <= radius) continue;
      const auto saved = cfg[static_cast<std::size_t>(w)];
      for (int m = 0; m < mutations_per_pair; ++m) {
        cfg[static_cast<std::size_t>(w)] = mutate(rng);
        if (proto.enabled(g, cfg, v) != was_enabled) return true;
        if (was_enabled && proto.apply(g, cfg, v) != was_successor) {
          return true;
        }
      }
      cfg[static_cast<std::size_t>(w)] = saved;
    }
  }
  return false;
}

std::vector<Graph> probe_topologies() {
  std::vector<Graph> out;
  out.push_back(make_path(7));
  out.push_back(make_ring(8));
  out.push_back(make_grid(3, 3));
  return out;
}

constexpr int kConfigsPerGraph = 8;
constexpr int kMutationsPerPair = 4;

TEST(LocalityRadiusTest, SsmeWithinDeclaredRadius) {
  for (const Graph& g : probe_topologies()) {
    const SsmeProtocol proto = SsmeProtocol::for_graph(g);
    std::mt19937_64 rng(11);
    for (int c = 0; c < kConfigsPerGraph; ++c) {
      auto cfg = random_config(g, proto.clock(), 100 + c);
      EXPECT_FALSE(find_locality_violation(
          g, proto, std::move(cfg),
          [&proto](std::mt19937_64& r) {
            return static_cast<ClockValue>(
                r() % static_cast<std::uint64_t>(proto.params().k));
          },
          rng, kMutationsPerPair))
          << "n=" << g.n();
    }
  }
}

TEST(LocalityRadiusTest, DijkstraRingWithinDeclaredRadius) {
  const Graph g = make_ring(9);
  const DijkstraRingProtocol proto = DijkstraRingProtocol::for_ring(g);
  std::mt19937_64 rng(13);
  for (int c = 0; c < kConfigsPerGraph; ++c) {
    Config<DijkstraRingProtocol::State> cfg(static_cast<std::size_t>(g.n()));
    for (auto& s : cfg) {
      s = static_cast<DijkstraRingProtocol::State>(
          rng() % static_cast<std::uint64_t>(proto.k()));
    }
    EXPECT_FALSE(find_locality_violation(
        g, proto, std::move(cfg),
        [&proto](std::mt19937_64& r) {
          return static_cast<DijkstraRingProtocol::State>(
              r() % static_cast<std::uint64_t>(proto.k()));
        },
        rng, kMutationsPerPair));
  }
}

TEST(LocalityRadiusTest, MatchingWithinDeclaredRadius) {
  for (const Graph& g : probe_topologies()) {
    const MatchingProtocol proto;
    std::mt19937_64 rng(17);
    for (int c = 0; c < kConfigsPerGraph; ++c) {
      Config<MatchingProtocol::State> cfg(static_cast<std::size_t>(g.n()));
      for (auto& s : cfg) {
        s = static_cast<MatchingProtocol::State>(
            static_cast<std::int64_t>(rng() % (g.n() + 3)) - 2);
      }
      EXPECT_FALSE(find_locality_violation(
          g, proto, std::move(cfg),
          [&g](std::mt19937_64& r) {
            return static_cast<MatchingProtocol::State>(
                static_cast<std::int64_t>(r() % (g.n() + 3)) - 2);
          },
          rng, kMutationsPerPair))
          << "n=" << g.n();
    }
  }
}

TEST(LocalityRadiusTest, RemainingProtocolsWithinDefaultRadius) {
  for (const Graph& g : probe_topologies()) {
    const MinPlusOneProtocol mpo(g);
    const ColoringProtocol col(g);
    const LeaderElectionProtocol le(g);
    const UnboundedUnisonProtocol uu;
    std::mt19937_64 rng(19);
    for (int c = 0; c < kConfigsPerGraph; ++c) {
      Config<MinPlusOneProtocol::State> mpo_cfg(
          static_cast<std::size_t>(g.n()));
      for (auto& s : mpo_cfg) {
        s = static_cast<MinPlusOneProtocol::State>(
            rng() % static_cast<std::uint64_t>(mpo.level_cap() + 1));
      }
      EXPECT_FALSE(find_locality_violation(
          g, mpo, std::move(mpo_cfg),
          [&mpo](std::mt19937_64& r) {
            return static_cast<MinPlusOneProtocol::State>(
                r() % static_cast<std::uint64_t>(mpo.level_cap() + 1));
          },
          rng, kMutationsPerPair));

      EXPECT_FALSE(find_locality_violation(
          g, col, random_coloring_config(g, col.palette_size(), 300 + c),
          [&col](std::mt19937_64& r) {
            return static_cast<ColoringProtocol::State>(
                static_cast<std::int64_t>(
                    r() % static_cast<std::uint64_t>(3 * col.palette_size())) -
                col.palette_size());
          },
          rng, kMutationsPerPair));

      EXPECT_FALSE(find_locality_violation(
          g, le, random_leader_config(g, 400 + c),
          [&g](std::mt19937_64& r) {
            return LeaderState{static_cast<std::int32_t>(r() % (2 * g.n())) -
                                   g.n(),
                               static_cast<std::int32_t>(r() % (2 * g.n()))};
          },
          rng, kMutationsPerPair));

      Config<UnboundedUnisonProtocol::State> uu_cfg(
          static_cast<std::size_t>(g.n()));
      for (auto& s : uu_cfg) s = static_cast<std::int64_t>(rng() % 12);
      EXPECT_FALSE(find_locality_violation(
          g, uu, std::move(uu_cfg),
          [](std::mt19937_64& r) {
            return static_cast<std::int64_t>(r() % 12);
          },
          rng, kMutationsPerPair));
    }
  }
}

TEST(LocalityRadiusTest, TwoHopProtocolNeedsRadiusTwo) {
  // Correctly declared radius 2: no violation found.
  for (const Graph& g : probe_topologies()) {
    const TwoHopMaxProtocol honest(2);
    std::mt19937_64 rng(23);
    for (int c = 0; c < kConfigsPerGraph; ++c) {
      Config<std::int32_t> cfg(static_cast<std::size_t>(g.n()));
      for (auto& s : cfg) s = static_cast<std::int32_t>(rng() % 30);
      EXPECT_FALSE(find_locality_violation(
          g, honest, std::move(cfg),
          [](std::mt19937_64& r) {
            return static_cast<std::int32_t>(r() % 30);
          },
          rng, kMutationsPerPair));
    }
  }

  // Understated radius 1: the brute-forcer must catch it — this is the
  // "fails loudly" guarantee a future wide-dependency protocol relies on.
  const Graph g = make_path(7);
  const TwoHopMaxProtocol lying(1);
  std::mt19937_64 rng(29);
  bool caught = false;
  for (int c = 0; c < kConfigsPerGraph && !caught; ++c) {
    Config<std::int32_t> cfg(static_cast<std::size_t>(g.n()));
    for (auto& s : cfg) s = static_cast<std::int32_t>(rng() % 30);
    caught = find_locality_violation(
        g, lying, std::move(cfg),
        [](std::mt19937_64& r) { return static_cast<std::int32_t>(r() % 30); },
        rng, kMutationsPerPair);
  }
  EXPECT_TRUE(caught) << "an understated locality radius went undetected";
}

}  // namespace
}  // namespace specstab
