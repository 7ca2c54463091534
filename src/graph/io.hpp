// Graph serialization: a tiny edge-list text format plus matrix/degree
// utilities, so examples and external tools can exchange topologies.
//
// Format (whitespace- and comment-tolerant; each number one whole
// decimal token, two tokens a line):
//     # comment
//     n <vertex-count>
//     <u> <v>
//     <u> <v>
//     ...
#ifndef SPECSTAB_GRAPH_IO_HPP
#define SPECSTAB_GRAPH_IO_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace specstab {

/// Serializes g in the edge-list format above.
[[nodiscard]] std::string to_edge_list(const Graph& g);

/// Parses the edge-list format.  Throws std::invalid_argument on
/// malformed input (missing header, bad tokens, duplicate edges, ...).
[[nodiscard]] Graph from_edge_list(const std::string& text);

/// Stream variants.
void write_edge_list(std::ostream& os, const Graph& g);
[[nodiscard]] Graph read_edge_list(std::istream& is);

/// Dense adjacency matrix (row-major, n x n, 0/1).
[[nodiscard]] std::vector<std::vector<int>> adjacency_matrix(const Graph& g);

/// Sorted (descending) degree sequence.
[[nodiscard]] std::vector<VertexId> degree_sequence(const Graph& g);

}  // namespace specstab

#endif  // SPECSTAB_GRAPH_IO_HPP
