// Unit tests for metric graph properties.
#include "graph/properties.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace specstab {
namespace {

TEST(PropertiesTest, BfsDistancesOnPath) {
  const Graph g = make_path(5);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d, (std::vector<VertexId>{0, 1, 2, 3, 4}));
  const auto d2 = bfs_distances(g, 2);
  EXPECT_EQ(d2, (std::vector<VertexId>{2, 1, 0, 1, 2}));
}

TEST(PropertiesTest, UnreachableIsMinusOne) {
  const Graph g(3, {{0, 1}});
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], -1);
  EXPECT_THROW((void)distance(g, 0, 2), std::invalid_argument);
}

TEST(PropertiesTest, DiameterOfFamilies) {
  EXPECT_EQ(diameter(make_path(10)), 9);
  EXPECT_EQ(diameter(make_ring(10)), 5);
  EXPECT_EQ(diameter(make_ring(11)), 5);
  EXPECT_EQ(diameter(make_star(9)), 2);
  EXPECT_EQ(diameter(make_complete(5)), 1);
  EXPECT_EQ(diameter(make_grid(4, 6)), 8);
  EXPECT_EQ(diameter(make_hypercube(5)), 5);
  EXPECT_EQ(diameter(Graph(1)), 0);
}

TEST(PropertiesTest, RadiusOfFamilies) {
  EXPECT_EQ(radius(make_path(9)), 4);   // centre of P9
  EXPECT_EQ(radius(make_star(9)), 1);   // hub
  EXPECT_EQ(radius(make_ring(10)), 5);  // vertex-transitive
}

TEST(PropertiesTest, EccentricityOnPath) {
  const Graph g = make_path(7);
  EXPECT_EQ(eccentricity(g, 0), 6);
  EXPECT_EQ(eccentricity(g, 3), 3);
}

TEST(PropertiesTest, DiameterPairRealisesDiameter) {
  for (const Graph& g :
       {make_path(8), make_ring(9), make_grid(3, 5), make_binary_tree(15)}) {
    const auto [u, v] = diameter_pair(g);
    EXPECT_EQ(distance(g, u, v), diameter(g));
  }
}

TEST(PropertiesTest, AllPairsMatchesSingleSource) {
  const Graph g = make_grid(3, 3);
  const auto apd = all_pairs_distances(g);
  for (VertexId u = 0; u < g.n(); ++u) {
    EXPECT_EQ(apd[static_cast<std::size_t>(u)], bfs_distances(g, u));
  }
}

TEST(PropertiesTest, Girth) {
  EXPECT_EQ(girth(make_ring(8)), 8);
  EXPECT_EQ(girth(make_complete(4)), 3);
  EXPECT_EQ(girth(make_path(5)), -1);  // acyclic
  EXPECT_EQ(girth(make_grid(2, 2)), 4);
  EXPECT_EQ(girth(make_petersen()), 5);
  EXPECT_EQ(girth(make_hypercube(3)), 4);
}

TEST(PropertiesTest, Bipartiteness) {
  EXPECT_TRUE(is_bipartite(make_ring(8)));
  EXPECT_FALSE(is_bipartite(make_ring(9)));
  EXPECT_TRUE(is_bipartite(make_path(5)));
  EXPECT_TRUE(is_bipartite(make_grid(4, 4)));
  EXPECT_FALSE(is_bipartite(make_complete(3)));
  EXPECT_FALSE(is_bipartite(make_petersen()));
}

TEST(PropertiesTest, TreeRecognition) {
  EXPECT_TRUE(is_tree(make_path(6)));
  EXPECT_TRUE(is_tree(make_star(6)));
  EXPECT_FALSE(is_tree(make_ring(6)));
  Graph forest(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(is_tree(forest));  // disconnected
}

TEST(PropertiesTest, CycleSpaceDimension) {
  EXPECT_EQ(cycle_space_dimension(make_path(5)), 0);
  EXPECT_EQ(cycle_space_dimension(make_ring(5)), 1);
  EXPECT_EQ(cycle_space_dimension(make_complete(4)), 3);  // 6 - 4 + 1
  EXPECT_EQ(cycle_space_dimension(make_grid(3, 3)), 4);
  Graph forest(4, {{0, 1}, {2, 3}});
  EXPECT_EQ(cycle_space_dimension(forest), 0);  // 2 - 4 + 2
}

}  // namespace
}  // namespace specstab
