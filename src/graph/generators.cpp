#include "graph/generators.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <queue>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

namespace specstab {

namespace {

using EdgeList = std::vector<std::pair<VertexId, VertexId>>;

void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

/// Uniform random labelled tree on n >= 1 vertices as an edge list
/// (Pruefer decode, canonical smallest-leaf order via a min-heap —
/// O(n log n), so million-vertex random topologies stay tractable).
EdgeList random_tree_edges(VertexId n, std::uint64_t seed) {
  EdgeList edges;
  if (n <= 1) return edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  if (n == 2) {
    edges.emplace_back(0, 1);
    return edges;
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<VertexId> pick(0, n - 1);
  std::vector<VertexId> prufer(static_cast<std::size_t>(n - 2));
  for (auto& x : prufer) x = pick(rng);

  std::vector<VertexId> deg(static_cast<std::size_t>(n), 1);
  for (VertexId x : prufer) ++deg[static_cast<std::size_t>(x)];
  std::priority_queue<VertexId, std::vector<VertexId>,
                      std::greater<VertexId>>
      leaves;
  for (VertexId v = 0; v < n; ++v) {
    if (deg[static_cast<std::size_t>(v)] == 1) leaves.push(v);
  }
  for (VertexId x : prufer) {
    const VertexId leaf = leaves.top();
    leaves.pop();
    edges.emplace_back(leaf, x);
    if (--deg[static_cast<std::size_t>(x)] == 1) leaves.push(x);
  }
  const VertexId a = leaves.top();
  leaves.pop();
  const VertexId b = leaves.top();
  edges.emplace_back(a, b);
  return edges;
}

/// Appends the edges of a clique on [first, first + size).
void add_clique(EdgeList& edges, VertexId first, VertexId size) {
  for (VertexId i = first; i < first + size; ++i)
    for (VertexId j = i + 1; j < first + size; ++j) edges.emplace_back(i, j);
}

}  // namespace

Graph make_ring(VertexId n) {
  require(n >= 3, "make_ring: need n >= 3");
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n));
  for (VertexId i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  return Graph(n, edges, n / 2);
}

Graph make_path(VertexId n) {
  require(n >= 1, "make_path: need n >= 1");
  EdgeList edges;
  if (n > 1) edges.reserve(static_cast<std::size_t>(n) - 1);
  for (VertexId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph(n, edges, n - 1);
}

Graph make_star(VertexId n) {
  require(n >= 2, "make_star: need n >= 2");
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (VertexId i = 1; i < n; ++i) edges.emplace_back(0, i);
  return Graph(n, edges, n == 2 ? 1 : 2);
}

Graph make_complete(VertexId n) {
  require(n >= 1, "make_complete: need n >= 1");
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) - 1) /
                2);
  add_clique(edges, 0, n);
  return Graph(n, edges, n == 1 ? 0 : 1);
}

Graph make_grid(VertexId rows, VertexId cols) {
  require(rows >= 1 && cols >= 1, "make_grid: need rows, cols >= 1");
  const auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(rows) * cols * 2);
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return Graph(rows * cols, edges, (rows - 1) + (cols - 1));
}

Graph make_torus(VertexId rows, VertexId cols) {
  require(rows >= 3 && cols >= 3, "make_torus: need rows, cols >= 3");
  const auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(rows) * cols * 2);
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      edges.emplace_back(id(r, c), id(r, (c + 1) % cols));
      edges.emplace_back(id(r, c), id((r + 1) % rows, c));
    }
  }
  return Graph(rows * cols, edges, rows / 2 + cols / 2);
}

Graph make_hypercube(int dim) {
  require(dim >= 1 && dim <= 20, "make_hypercube: need 1 <= dim <= 20");
  const VertexId n = static_cast<VertexId>(1) << dim;
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(dim) /
                2);
  for (VertexId v = 0; v < n; ++v) {
    for (int b = 0; b < dim; ++b) {
      const VertexId u = v ^ (static_cast<VertexId>(1) << b);
      if (v < u) edges.emplace_back(v, u);
    }
  }
  return Graph(n, edges, dim);
}

Graph make_binary_tree(VertexId n) {
  require(n >= 1, "make_binary_tree: need n >= 1");
  EdgeList edges;
  if (n > 1) edges.reserve(static_cast<std::size_t>(n) - 1);
  for (VertexId i = 1; i < n; ++i) edges.emplace_back(i, (i - 1) / 2);
  return Graph(n, edges);
}

Graph make_random_tree(VertexId n, std::uint64_t seed) {
  require(n >= 1, "make_random_tree: need n >= 1");
  return Graph(n, random_tree_edges(n, seed));
}

Graph make_random_connected(VertexId n, double p, std::uint64_t seed) {
  require(n >= 1, "make_random_connected: need n >= 1");
  require(p >= 0.0 && p <= 1.0, "make_random_connected: need p in [0, 1]");
  EdgeList edges = random_tree_edges(n, seed);

  // Normalized sorted tree edges, so overlay samples that hit a tree
  // pair can be discarded by binary search.
  EdgeList tree(edges);
  for (auto& [u, v] : tree) {
    if (u > v) std::swap(u, v);
  }
  std::sort(tree.begin(), tree.end());
  const auto is_tree_edge = [&tree](VertexId u, VertexId v) {
    return std::binary_search(tree.begin(), tree.end(), std::make_pair(u, v));
  };

  // Erdos-Renyi overlay: each non-tree pair independently with
  // probability p.  Enumerating all n(n-1)/2 pairs is intractable at
  // the 10^6-vertex target, so sample by geometric skips over the
  // linear pair index (the bernoulli daemon's sampler idiom): the gap
  // between consecutive included pairs is Geometric(p).  Samples that
  // land on tree pairs are discarded, which leaves every non-tree pair
  // i.i.d. Bernoulli(p) — the same distribution the old enumeration
  // produced.  All pair arithmetic is 64-bit: n(n-1)/2 overflows
  // 32-bit counts from n = 2^17 up, and the 10^7-vertex target has
  // ~5*10^13 pairs.
  const auto n64 = static_cast<std::int64_t>(n);
  const std::int64_t total_pairs = n64 * (n64 - 1) / 2;
  if (p > 0.0 && total_pairs > 0) {
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
    // Decode linear index -> (u, v) by a monotonic row walk: positions
    // are visited in increasing order, so amortized O(n + samples).
    VertexId u = 0;
    std::int64_t row_start = 0;
    std::int64_t row_end = n64 - 1;
    const auto decode = [&](std::int64_t pos) {
      while (pos >= row_end) {
        ++u;
        row_start = row_end;
        row_end += n64 - 1 - u;
      }
      return std::make_pair(u, static_cast<VertexId>(u + 1 + pos - row_start));
    };
    if (p >= 1.0) {
      for (std::int64_t pos = 0; pos < total_pairs; ++pos) {
        const auto [a, b] = decode(pos);
        if (!is_tree_edge(a, b)) edges.emplace_back(a, b);
      }
    } else {
      // Geometric(p) requires 0 < p < 1, hence only on this branch.
      std::geometric_distribution<std::int64_t> skip(p);
      for (std::int64_t pos = skip(rng); pos < total_pairs;
           pos += 1 + skip(rng)) {
        const auto [a, b] = decode(pos);
        if (!is_tree_edge(a, b)) edges.emplace_back(a, b);
      }
    }
  }
  return Graph(n, edges);
}

Graph make_wheel(VertexId n) {
  require(n >= 4, "make_wheel: need n >= 4");
  EdgeList edges;
  edges.reserve(2 * (static_cast<std::size_t>(n) - 1));
  for (VertexId i = 1; i < n; ++i) {
    edges.emplace_back(0, i);
    edges.emplace_back(i, i + 1 < n ? i + 1 : 1);
  }
  // W_4 is K_4; from n = 5 on, two rim vertices can be non-adjacent.
  return Graph(n, edges, n == 4 ? 1 : 2);
}

Graph make_lollipop(VertexId clique, VertexId path) {
  require(clique >= 2, "make_lollipop: need clique >= 2");
  require(path >= 0, "make_lollipop: need path >= 0");
  EdgeList edges;
  add_clique(edges, 0, clique);
  for (VertexId i = 0; i < path; ++i)
    edges.emplace_back(clique - 1 + i, clique + i);
  // From clique vertex 0 across to the end of the stick.
  return Graph(clique + path, edges, path + 1);
}

Graph make_barbell(VertexId clique, VertexId path) {
  require(clique >= 2, "make_barbell: need clique >= 2");
  require(path >= 0, "make_barbell: need path >= 0");
  const VertexId second = clique + path;
  EdgeList edges;
  add_clique(edges, 0, clique);
  add_clique(edges, second, clique);
  // Chain: last vertex of first clique - path vertices - first of second.
  VertexId prev = clique - 1;
  for (VertexId i = 0; i < path; ++i) {
    edges.emplace_back(prev, clique + i);
    prev = clique + i;
  }
  edges.emplace_back(prev, second);
  // A non-joint vertex of one clique to a non-joint vertex of the other.
  return Graph(2 * clique + path, edges, path + 3);
}

Graph make_petersen() {
  EdgeList edges;
  for (VertexId i = 0; i < 5; ++i) {
    edges.emplace_back(i, (i + 1) % 5);          // outer pentagon
    edges.emplace_back(5 + i, 5 + (i + 2) % 5);  // inner pentagram
    edges.emplace_back(i, 5 + i);                // spokes
  }
  return Graph(10, edges, 2);
}

Graph make_caterpillar(VertexId spine, VertexId legs) {
  require(spine >= 1, "make_caterpillar: need spine >= 1");
  require(legs >= 0, "make_caterpillar: need legs >= 0");
  EdgeList edges;
  for (VertexId i = 0; i + 1 < spine; ++i) edges.emplace_back(i, i + 1);
  VertexId next = spine;
  for (VertexId i = 0; i < spine; ++i)
    for (VertexId l = 0; l < legs; ++l) edges.emplace_back(i, next++);
  return Graph(spine * (1 + legs), edges);
}

Graph make_complete_bipartite(VertexId a, VertexId b) {
  require(a >= 1 && b >= 1, "make_complete_bipartite: need a, b >= 1");
  EdgeList edges;
  for (VertexId i = 0; i < a; ++i)
    for (VertexId j = 0; j < b; ++j) edges.emplace_back(i, a + j);
  return Graph(a + b, edges, a == 1 && b == 1 ? 1 : 2);
}

}  // namespace specstab
