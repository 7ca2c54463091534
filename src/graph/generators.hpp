// Topology generators.
//
// Dijkstra's protocol assumes a ring; SSME runs over *any* communication
// structure (paper, Section 1).  These generators supply the topology
// families the tests and benches sweep over.  All generated graphs are
// connected and simple.
//
// Ring, path, star, complete, grid, torus, hypercube, wheel, lollipop,
// barbell, Petersen and complete bipartite graphs record their
// closed-form diameter on the returned graph, so diameter() answers in
// O(1).  Trees (binary, caterpillar, random) and random graphs record
// nothing; diameter() computes theirs by iFUB (properties.hpp), which
// needs only a few BFS sweeps on trees.
#ifndef SPECSTAB_GRAPH_GENERATORS_HPP
#define SPECSTAB_GRAPH_GENERATORS_HPP

#include <cstdint>

#include "graph/graph.hpp"

namespace specstab {

/// Cycle C_n (n >= 3): vertex i adjacent to (i±1) mod n.  Dijkstra's
/// original topology.  diam = floor(n/2).
[[nodiscard]] Graph make_ring(VertexId n);

/// Path P_n (n >= 1): 0 - 1 - .. - n-1.  Maximises diam(g) = n - 1.
[[nodiscard]] Graph make_path(VertexId n);

/// Star S_n (n >= 2): vertex 0 adjacent to all others.  diam = 2 for n>=3
/// (1 for n = 2).
[[nodiscard]] Graph make_star(VertexId n);

/// Complete graph K_n (n >= 1).  diam = 1 for n >= 2 (0 for n = 1).
[[nodiscard]] Graph make_complete(VertexId n);

/// rows x cols grid (both >= 1), 4-neighbourhood.  Vertex (r, c) is
/// r*cols + c.  diam = (rows-1) + (cols-1).
[[nodiscard]] Graph make_grid(VertexId rows, VertexId cols);

/// rows x cols torus (both >= 3): grid with wraparound rows/columns.
/// diam = floor(rows/2) + floor(cols/2).
[[nodiscard]] Graph make_torus(VertexId rows, VertexId cols);

/// Hypercube Q_d (d >= 1): 2^d vertices, edges between ids at Hamming
/// distance 1.  diam = d.
[[nodiscard]] Graph make_hypercube(int dim);

/// Complete binary tree with n vertices (heap indexing: children of i are
/// 2i+1 and 2i+2).
[[nodiscard]] Graph make_binary_tree(VertexId n);

/// Uniform random labelled tree on n vertices (Pruefer sequence).
[[nodiscard]] Graph make_random_tree(VertexId n, std::uint64_t seed);

/// Connected Erdos-Renyi-style graph: random spanning tree plus each
/// remaining pair independently with probability p.
[[nodiscard]] Graph make_random_connected(VertexId n, double p,
                                          std::uint64_t seed);

/// Wheel W_n (n >= 4): ring on vertices 1..n-1 plus hub 0.  diam = 2
/// (1 for W_4 = K_4).
[[nodiscard]] Graph make_wheel(VertexId n);

/// Lollipop: clique K_k (k >= 2, vertices 0..k-1) plus a path of p >= 0
/// extra vertices hanging off vertex k-1.  Classic diameter-vs-density
/// stress shape; diam = p + 1.
[[nodiscard]] Graph make_lollipop(VertexId clique, VertexId path);

/// Barbell: two K_k cliques (k >= 2) joined by a path of p >= 0
/// intermediate vertices; diam = p + 3.
[[nodiscard]] Graph make_barbell(VertexId clique, VertexId path);

/// Petersen graph (n = 10, 3-regular, girth 5, diam 2).
[[nodiscard]] Graph make_petersen();

/// Caterpillar: a spine path of `spine` vertices with `legs` pendant
/// vertices attached to each spine vertex.
[[nodiscard]] Graph make_caterpillar(VertexId spine, VertexId legs);

/// Complete bipartite K_{a,b} (a, b >= 1).  diam = 2 (1 for K_{1,1}).
[[nodiscard]] Graph make_complete_bipartite(VertexId a, VertexId b);

}  // namespace specstab

#endif  // SPECSTAB_GRAPH_GENERATORS_HPP
