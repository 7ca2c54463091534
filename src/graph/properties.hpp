// Metric and structural graph properties used throughout the paper:
// dist(g, u, v), diam(g) (Sections 1-5), plus connectivity/bipartiteness
// helpers for tests and generators.
#ifndef SPECSTAB_GRAPH_PROPERTIES_HPP
#define SPECSTAB_GRAPH_PROPERTIES_HPP

#include <vector>

#include "graph/graph.hpp"

namespace specstab {

/// BFS distances from `src`; unreachable vertices get -1.
[[nodiscard]] std::vector<VertexId> bfs_distances(const Graph& g,
                                                  VertexId src);

/// All-pairs distance matrix (n BFS runs); dist[u][v] = -1 if unreachable.
[[nodiscard]] std::vector<std::vector<VertexId>> all_pairs_distances(
    const Graph& g);

/// dist(g, u, v): length of a shortest u-v path.  Throws
/// std::invalid_argument if u and v are disconnected.
[[nodiscard]] VertexId distance(const Graph& g, VertexId u, VertexId v);

/// Eccentricity of v: max over u of dist(v, u).  Requires connectivity.
[[nodiscard]] VertexId eccentricity(const Graph& g, VertexId v);

/// diam(g): maximal distance between two vertices.  0 for n <= 1.
/// O(1) when the generator recorded its family's closed form
/// (Graph::known_diameter()); otherwise exact by iFUB, a 4-sweep plus
/// BFS from the centre's fringe levels: a few O(n + m) sweeps on trees
/// and sparse real-world graphs, up to n on expander-like ones.
/// Throws std::invalid_argument on disconnected graphs.
[[nodiscard]] VertexId diameter(const Graph& g);

/// radius(g): minimal eccentricity.
[[nodiscard]] VertexId radius(const Graph& g);

/// A pair (u, v) realising the diameter (lexicographically smallest).
/// One BFS per source up to the first peripheral vertex: a single BFS
/// when vertex 0 is peripheral (ring, path, grid, torus, hypercube).
[[nodiscard]] std::pair<VertexId, VertexId> diameter_pair(const Graph& g);

/// Girth: length of a shortest cycle; -1 if the graph is acyclic.
[[nodiscard]] VertexId girth(const Graph& g);

/// True iff g is 2-colorable.
[[nodiscard]] bool is_bipartite(const Graph& g);

/// True iff g is acyclic and connected.
[[nodiscard]] bool is_tree(const Graph& g);

/// Cyclomatic number m - n + (#components): dimension of the cycle space.
[[nodiscard]] std::int64_t cycle_space_dimension(const Graph& g);

}  // namespace specstab

#endif  // SPECSTAB_GRAPH_PROPERTIES_HPP
