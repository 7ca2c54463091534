// Tests for graph serialization and matrix utilities.
#include "graph/io.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace specstab {
namespace {

TEST(GraphIoTest, RoundTrip) {
  for (const Graph& g : {make_ring(7), make_grid(3, 4), make_petersen(),
                         Graph(1), Graph(0), make_star(5)}) {
    EXPECT_EQ(from_edge_list(to_edge_list(g)), g);
  }
}

TEST(GraphIoTest, FormatShape) {
  const std::string text = to_edge_list(make_path(3));
  EXPECT_EQ(text, "n 3\n0 1\n1 2\n");
}

TEST(GraphIoTest, CommentsAndBlanksTolerated) {
  const Graph g = from_edge_list(
      "# a triangle\n"
      "n 3\n"
      "\n"
      "0 1  # first edge\n"
      "1 2\n"
      "0 2\n");
  EXPECT_EQ(g, make_ring(3));
}

TEST(GraphIoTest, MalformedInputs) {
  EXPECT_THROW((void)from_edge_list(""), std::invalid_argument);
  EXPECT_THROW((void)from_edge_list("0 1\n"), std::invalid_argument);
  EXPECT_THROW((void)from_edge_list("n 3\nn 4\n"), std::invalid_argument);
  EXPECT_THROW((void)from_edge_list("n -2\n"), std::invalid_argument);
  EXPECT_THROW((void)from_edge_list("n 3\n0\n"), std::invalid_argument);
  EXPECT_THROW((void)from_edge_list("n 3\n0 1 2\n"), std::invalid_argument);
  EXPECT_THROW((void)from_edge_list("n 3\n0 5\n"), std::out_of_range);
  EXPECT_THROW((void)from_edge_list("n 3\n0 1\n0 1\n"), std::invalid_argument);
  // Every number is a whole token, and the header line holds one.
  EXPECT_THROW((void)from_edge_list("n 4junk\n"), std::invalid_argument);
  EXPECT_THROW((void)from_edge_list("n 4 9\n"), std::invalid_argument);
  EXPECT_THROW((void)from_edge_list("n 4\n0 +1\n"), std::invalid_argument);
}

TEST(GraphIoTest, AdjacencyMatrix) {
  const auto m = adjacency_matrix(make_path(3));
  EXPECT_EQ(m[0], (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(m[1], (std::vector<int>{1, 0, 1}));
  EXPECT_EQ(m[2], (std::vector<int>{0, 1, 0}));
}

TEST(GraphIoTest, DegreeSequence) {
  EXPECT_EQ(degree_sequence(make_star(5)), (std::vector<VertexId>{4, 1, 1, 1, 1}));
  EXPECT_EQ(degree_sequence(make_ring(4)), (std::vector<VertexId>{2, 2, 2, 2}));
}

}  // namespace
}  // namespace specstab
