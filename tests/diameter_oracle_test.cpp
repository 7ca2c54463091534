// Property suite for diameter() and diameter_pair(): every closed form a
// generator records, and every iFUB answer on graphs without one, must
// equal the all-pairs oracle below (one BFS per vertex).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"

namespace specstab {
namespace {

/// diam(g) by one BFS per vertex.
VertexId oracle_diameter(const Graph& g) {
  VertexId diam = 0;
  for (VertexId v = 0; v < g.n(); ++v) {
    diam = std::max(diam, eccentricity(g, v));
  }
  return diam;
}

/// The lexicographically smallest pair (u, v) with dist(u, v) = diam(g).
std::pair<VertexId, VertexId> oracle_diameter_pair(const Graph& g) {
  const VertexId diam = oracle_diameter(g);
  for (VertexId u = 0; u < g.n(); ++u) {
    const auto dist = bfs_distances(g, u);
    for (VertexId v = 0; v < g.n(); ++v) {
      if (dist[static_cast<std::size_t>(v)] == diam) return {u, v};
    }
  }
  return {0, 0};
}

struct Case {
  std::string name;
  Graph g;
  bool closed_form;  ///< the generator records its family's diameter
};

using Dims = std::vector<std::pair<VertexId, VertexId>>;

std::string dims(VertexId a, VertexId b) {
  return std::to_string(a) + "x" + std::to_string(b);
}

/// Every generator family at small sizes, degenerate ones included.
std::vector<Case> family_cases() {
  std::vector<Case> out;
  const auto add = [&out](std::string name, Graph g, bool closed_form) {
    out.push_back({std::move(name), std::move(g), closed_form});
  };
  for (VertexId n : {3, 4, 5, 6, 7, 10, 11}) {
    add("ring " + std::to_string(n), make_ring(n), true);
  }
  for (VertexId n : {1, 2, 3, 8}) {
    add("path " + std::to_string(n), make_path(n), true);
  }
  for (VertexId n : {2, 3, 7}) {
    add("star " + std::to_string(n), make_star(n), true);
  }
  for (VertexId n : {1, 2, 3, 6}) {
    add("complete " + std::to_string(n), make_complete(n), true);
  }
  for (const auto& [r, c] : Dims{{1, 1}, {1, 2}, {1, 7}, {2, 1}, {3, 4}}) {
    add("grid " + dims(r, c), make_grid(r, c), true);
  }
  for (const auto& [r, c] : Dims{{5, 5}, {6, 2}}) {
    add("grid " + dims(r, c), make_grid(r, c), true);
  }
  for (const auto& [r, c] : Dims{{3, 3}, {3, 4}, {4, 4}, {5, 3}, {6, 7}}) {
    add("torus " + dims(r, c), make_torus(r, c), true);
  }
  for (int d = 1; d <= 6; ++d) {
    add("hypercube " + std::to_string(d), make_hypercube(d), true);
  }
  for (VertexId n : {4, 5, 6, 9}) {
    add("wheel " + std::to_string(n), make_wheel(n), true);
  }
  for (const auto& [k, p] : Dims{{2, 0}, {2, 3}, {4, 0}, {4, 3}}) {
    add("lollipop " + dims(k, p), make_lollipop(k, p), true);
  }
  for (const auto& [k, p] : Dims{{2, 0}, {3, 0}, {3, 2}, {4, 5}}) {
    add("barbell " + dims(k, p), make_barbell(k, p), true);
  }
  add("petersen", make_petersen(), true);
  for (const auto& [a, b] : Dims{{1, 1}, {1, 4}, {2, 2}, {3, 4}}) {
    add("bipartite " + dims(a, b), make_complete_bipartite(a, b), true);
  }
  for (VertexId n : {1, 2, 3, 4, 7, 12, 31}) {
    add("btree " + std::to_string(n), make_binary_tree(n), false);
  }
  for (const auto& [s, l] : Dims{{1, 0}, {1, 1}, {1, 3}, {4, 0}, {4, 2}}) {
    add("caterpillar " + dims(s, l), make_caterpillar(s, l), false);
  }
  add("caterpillar 6x1", make_caterpillar(6, 1), false);
  return out;
}

/// 120 seeded random connected graphs plus 100 seeded random trees.
std::vector<Case> random_cases() {
  std::vector<Case> out;
  const double densities[] = {0.0, 0.02, 0.05, 0.1, 0.3, 1.0};
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    const auto n = static_cast<VertexId>(2 + (seed * 7) % 69);
    Graph g = make_random_connected(n, densities[seed % 6], seed);
    out.push_back({"random seed " + std::to_string(seed), std::move(g), false});
  }
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const auto n = static_cast<VertexId>(1 + (seed * 13) % 80);
    Graph g = make_random_tree(n, seed);
    out.push_back({"tree seed " + std::to_string(seed), std::move(g), false});
  }
  return out;
}

void expect_matches_oracle(const Graph& g, const std::string& name) {
  EXPECT_EQ(diameter(g), oracle_diameter(g)) << name;
  EXPECT_EQ(diameter_pair(g), oracle_diameter_pair(g)) << name;
}

TEST(DiameterOracleTest, GeneratorFamiliesMatchTheOracle) {
  for (const Case& c : family_cases()) {
    EXPECT_EQ(c.g.known_diameter() >= 0, c.closed_form) << c.name;
    expect_matches_oracle(c.g, c.name);
  }
}

TEST(DiameterOracleTest, SeededRandomGraphsMatchTheOracle) {
  const std::vector<Case> cases = random_cases();
  ASSERT_GE(cases.size(), 200u);
  for (const Case& c : cases) {
    EXPECT_EQ(c.g.known_diameter(), -1) << c.name;
    expect_matches_oracle(c.g, c.name);
  }
}

TEST(DiameterOracleTest, EdgeListRoundTripsRunIfubToTheSameValue) {
  // A loaded graph carries no closed form, so diameter() takes the iFUB
  // path even for the families whose generators record one.
  std::vector<Case> cases = family_cases();
  for (Case& c : random_cases()) cases.push_back(std::move(c));
  for (const Case& c : cases) {
    const Graph loaded = from_edge_list(to_edge_list(c.g));
    ASSERT_EQ(loaded, c.g) << c.name;
    EXPECT_EQ(loaded.known_diameter(), -1) << c.name;
    EXPECT_EQ(diameter(loaded), oracle_diameter(c.g)) << c.name;
    EXPECT_EQ(diameter_pair(loaded), oracle_diameter_pair(c.g)) << c.name;
  }
}

TEST(DiameterOracleTest, IfubIsExactOnItsWorstCaseFamilies) {
  // Vertex-transitive and grid-like graphs give iFUB no early exit; as
  // loaded graphs they sweep hundreds of fringe vertices.
  const auto check = [](const std::string& name, const Graph& g) {
    const Graph loaded = from_edge_list(to_edge_list(g));
    EXPECT_EQ(diameter(loaded), oracle_diameter(g)) << name;
  };
  check("ring 301", make_ring(301));
  check("torus 15x16", make_torus(15, 16));
  check("grid 20x30", make_grid(20, 30));
  check("hypercube 8", make_hypercube(8));
  check("random 400 0.01 3", make_random_connected(400, 0.01, 3));
}

TEST(DiameterOracleTest, AddEdgeClearsTheClosedForm) {
  Graph chorded = make_ring(12);
  ASSERT_EQ(chorded.known_diameter(), 6);
  chorded.add_edge(0, 3);
  EXPECT_EQ(chorded.known_diameter(), -1);
  expect_matches_oracle(chorded, "ring 12 + chord {0, 3}");

  // Closing a path into a ring: a stale closed form would still say 9.
  Graph closed = make_path(10);
  ASSERT_EQ(closed.known_diameter(), 9);
  closed.add_edge(0, 9);
  EXPECT_EQ(diameter(closed), 5);
  expect_matches_oracle(closed, "path 10 closed into a ring");
}

TEST(DiameterOracleTest, DisconnectedGraphsThrow) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  EXPECT_THROW((void)diameter(g), std::invalid_argument);
  EXPECT_THROW((void)diameter_pair(g), std::invalid_argument);
  EXPECT_THROW((void)diameter(Graph(2)), std::invalid_argument);
}

}  // namespace
}  // namespace specstab
