// Unit tests for the Graph data structure.
#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace specstab {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.n(), 0);
  EXPECT_EQ(g.m(), 0);
  EXPECT_TRUE(g.is_connected());
}

TEST(GraphTest, SingleVertex) {
  Graph g(1);
  EXPECT_EQ(g.n(), 1);
  EXPECT_EQ(g.m(), 0);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(g.neighbors(0).empty());
}

TEST(GraphTest, NegativeVertexCountThrows) {
  EXPECT_THROW(Graph(-1), std::invalid_argument);
}

TEST(GraphTest, EdgeListBasics) {
  const Graph g(3, {{0, 1}});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.m(), 1);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 0);
}

TEST(GraphTest, SelfLoopThrows) {
  EXPECT_THROW(Graph(2, {{1, 1}}), std::invalid_argument);
}

TEST(GraphTest, DuplicateEdgeThrows) {
  EXPECT_THROW(Graph(2, {{0, 1}, {0, 1}}), std::invalid_argument);
  EXPECT_THROW(Graph(2, {{0, 1}, {1, 0}}), std::invalid_argument);
}

TEST(GraphTest, OutOfRangeThrows) {
  EXPECT_THROW(Graph(2, {{0, 2}}), std::out_of_range);
  EXPECT_THROW(Graph(2, {{-1, 0}}), std::out_of_range);
  const Graph g(2, {{0, 1}});
  EXPECT_THROW((void)g.neighbors(5), std::out_of_range);
  EXPECT_THROW((void)g.neighbors(-1), std::out_of_range);
  EXPECT_THROW((void)g.degree(2), std::out_of_range);
  EXPECT_THROW((void)g.has_edge(0, 2), std::out_of_range);
  EXPECT_THROW((void)g.has_edge(-1, 0), std::out_of_range);
}

TEST(GraphTest, EdgeListConstructor) {
  Graph g(4, {{0, 1}, {2, 1}, {3, 0}});
  EXPECT_EQ(g.m(), 3);
  EXPECT_TRUE(g.has_edge(1, 2));
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  // Sorted with u < v.
  EXPECT_EQ(edges[0], (std::pair<VertexId, VertexId>{0, 1}));
  EXPECT_EQ(edges[1], (std::pair<VertexId, VertexId>{0, 3}));
  EXPECT_EQ(edges[2], (std::pair<VertexId, VertexId>{1, 2}));
}

TEST(GraphTest, NeighborsSorted) {
  const Graph g(5, {{2, 4}, {2, 0}, {2, 3}, {2, 1}});
  EXPECT_TRUE(
      std::ranges::equal(g.neighbors(2), std::vector<VertexId>{0, 1, 3, 4}));
  // The CSR arrays behind the rows: row v is targets[offsets[v],
  // offsets[v + 1]).
  EXPECT_TRUE(std::ranges::equal(g.offsets(),
                                 std::vector<std::int64_t>{0, 1, 2, 6, 7, 8}));
  EXPECT_TRUE(std::ranges::equal(
      g.targets(), std::vector<VertexId>{2, 2, 0, 1, 3, 4, 2, 2}));
}

TEST(GraphTest, Connectivity) {
  EXPECT_FALSE(Graph(4, {{0, 1}, {2, 3}}).is_connected());
  EXPECT_TRUE(Graph(4, {{0, 1}, {2, 3}, {1, 2}}).is_connected());
}

TEST(GraphTest, Equality) {
  Graph a(3, {{0, 1}, {1, 2}});
  Graph b(3, {{1, 2}, {0, 1}});
  Graph c(3, {{0, 1}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(GraphTest, ToDotContainsAllEdges) {
  Graph g(3, {{0, 1}, {1, 2}});
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2"), std::string::npos);
  EXPECT_EQ(dot.find("0 -- 2"), std::string::npos);
}

}  // namespace
}  // namespace specstab
