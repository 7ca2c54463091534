#include "graph/properties.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace specstab {

namespace {

/// Breadth-first search whose buffers are reused across sweeps, so the
/// many BFS of one diameter computation allocate once.
class BfsSweeper {
 public:
  explicit BfsSweeper(const Graph& g)
      : g_(g),
        dist_(static_cast<std::size_t>(g.n()), -1),
        order_(static_cast<std::size_t>(g.n())) {}

  /// BFS from `src`; returns ecc(src).  Throws std::invalid_argument if
  /// some vertex is unreachable.
  VertexId sweep(VertexId src) {
    std::fill(dist_.begin(), dist_.end(), -1);
    dist_[static_cast<std::size_t>(src)] = 0;
    order_[0] = src;
    std::size_t head = 0;
    std::size_t tail = 1;
    while (head < tail) {
      const VertexId u = order_[head++];
      const VertexId next = dist_[static_cast<std::size_t>(u)] + 1;
      for (const VertexId v : g_.neighbors(u)) {
        if (dist_[static_cast<std::size_t>(v)] < 0) {
          dist_[static_cast<std::size_t>(v)] = next;
          order_[tail++] = v;
        }
      }
    }
    if (tail != order_.size()) {
      throw std::invalid_argument("diameter: graph disconnected");
    }
    return dist(farthest());
  }

  /// Distance from the last sweep's source.
  [[nodiscard]] VertexId dist(VertexId v) const {
    return dist_[static_cast<std::size_t>(v)];
  }

  /// Vertices in the order the last sweep reached them: by level.
  [[nodiscard]] const std::vector<VertexId>& order() const { return order_; }

  /// The last vertex the last sweep reached, one farthest from its source.
  [[nodiscard]] VertexId farthest() const { return order_.back(); }

  /// The vertex at distance `depth` from the last sweep's source on a
  /// shortest path from that source to `to` (lowest-id predecessors).
  [[nodiscard]] VertexId ancestor(VertexId to, VertexId depth) const {
    while (dist(to) > depth) {
      for (const VertexId w : g_.neighbors(to)) {
        if (dist(w) == dist(to) - 1) {
          to = w;
          break;
        }
      }
    }
    return to;
  }

 private:
  const Graph& g_;
  std::vector<VertexId> dist_;
  std::vector<VertexId> order_;
};

/// Exact diam(g) by iFUB (Crescenzi, Grossi, Habib, Lanzi, Marino, "On
/// computing the diameter of real-world undirected graphs", TCS 2013).
/// A 4-sweep picks a central vertex u and a lower bound; then BFS run
/// from u's fringe levels, farthest level first, until the lower bound
/// meets the upper bound the remaining levels allow.
VertexId ifub_diameter(const Graph& g) {
  BfsSweeper bfs(g);

  // 4-sweep: from the highest-degree vertex r, sweep to the farthest a,
  // then from a to the farthest b; the midpoint of that a-b path is the
  // next r.  Twice, so u is the second midpoint.  ecc(a) <= diam(g).
  VertexId u = 0;
  for (VertexId v = 1; v < g.n(); ++v) {
    if (g.degree(v) > g.degree(u)) u = v;
  }
  VertexId lower = 0;
  for (int round = 0; round < 2; ++round) {
    bfs.sweep(u);
    const VertexId ecc_a = bfs.sweep(bfs.farthest());
    lower = std::max(lower, ecc_a);
    u = bfs.ancestor(bfs.farthest(), ecc_a / 2);
  }

  const VertexId ecc_u = bfs.sweep(u);
  lower = std::max(lower, ecc_u);
  const std::vector<VertexId> by_level = bfs.order();
  // level_begin[i] indexes the first vertex of fringe F_i(u) in by_level.
  std::vector<std::size_t> level_begin(static_cast<std::size_t>(ecc_u) + 2,
                                       by_level.size());
  for (std::size_t k = by_level.size(); k-- > 0;) {
    level_begin[static_cast<std::size_t>(bfs.dist(by_level[k]))] = k;
  }
  // Two vertices at levels <= i are within 2i of each other, and a swept
  // vertex is within its eccentricity (<= lower) of every vertex.  So
  // once lower >= 2i, no pair left unswept can be farther apart.
  for (VertexId i = ecc_u; i >= 1; --i) {
    const auto level = static_cast<std::size_t>(i);
    for (std::size_t k = level_begin[level]; k < level_begin[level + 1]; ++k) {
      if (lower >= 2 * i) return lower;
      lower = std::max(lower, bfs.sweep(by_level[k]));
    }
  }
  return lower;
}

}  // namespace

std::vector<VertexId> bfs_distances(const Graph& g, VertexId src) {
  std::vector<VertexId> dist(static_cast<std::size_t>(g.n()), -1);
  std::queue<VertexId> q;
  dist[static_cast<std::size_t>(src)] = 0;
  q.push(src);
  while (!q.empty()) {
    const VertexId u = q.front();
    q.pop();
    for (VertexId v : g.neighbors(u)) {
      if (dist[static_cast<std::size_t>(v)] < 0) {
        dist[static_cast<std::size_t>(v)] =
            dist[static_cast<std::size_t>(u)] + 1;
        q.push(v);
      }
    }
  }
  return dist;
}

std::vector<std::vector<VertexId>> all_pairs_distances(const Graph& g) {
  std::vector<std::vector<VertexId>> d;
  d.reserve(static_cast<std::size_t>(g.n()));
  for (VertexId v = 0; v < g.n(); ++v) d.push_back(bfs_distances(g, v));
  return d;
}

VertexId distance(const Graph& g, VertexId u, VertexId v) {
  const VertexId d = bfs_distances(g, u)[static_cast<std::size_t>(v)];
  if (d < 0) throw std::invalid_argument("distance: vertices disconnected");
  return d;
}

VertexId eccentricity(const Graph& g, VertexId v) {
  const auto dist = bfs_distances(g, v);
  VertexId ecc = 0;
  for (VertexId d : dist) {
    if (d < 0) throw std::invalid_argument("eccentricity: graph disconnected");
    ecc = std::max(ecc, d);
  }
  return ecc;
}

VertexId diameter(const Graph& g) {
  if (g.known_diameter() >= 0) return g.known_diameter();
  if (g.n() <= 1) return 0;
  return ifub_diameter(g);
}

VertexId radius(const Graph& g) {
  if (g.n() <= 1) return 0;
  VertexId rad = -1;
  for (VertexId v = 0; v < g.n(); ++v) {
    const VertexId e = eccentricity(g, v);
    rad = (rad < 0) ? e : std::min(rad, e);
  }
  return rad;
}

std::pair<VertexId, VertexId> diameter_pair(const Graph& g) {
  if (g.n() <= 1) return {0, 0};
  const VertexId diam = diameter(g);
  // Sources in id order; on ring, path, grid, torus and hypercube vertex
  // 0 is peripheral, so the first sweep already finds the pair.
  BfsSweeper bfs(g);
  for (VertexId u = 0; u < g.n(); ++u) {
    if (bfs.sweep(u) < diam) continue;
    for (VertexId v = 0; v < g.n(); ++v) {
      if (bfs.dist(v) == diam) return {u, v};
    }
  }
  throw std::logic_error("diameter_pair: unreachable");
}

VertexId girth(const Graph& g) {
  // BFS from each vertex; a non-tree edge closing at depths d1, d2 yields a
  // cycle of length d1 + d2 + 1 through the root's BFS tree.
  VertexId best = -1;
  for (VertexId s = 0; s < g.n(); ++s) {
    std::vector<VertexId> dist(static_cast<std::size_t>(g.n()), -1);
    std::vector<VertexId> parent(static_cast<std::size_t>(g.n()), -1);
    std::queue<VertexId> q;
    dist[static_cast<std::size_t>(s)] = 0;
    q.push(s);
    while (!q.empty()) {
      const VertexId u = q.front();
      q.pop();
      for (VertexId v : g.neighbors(u)) {
        if (dist[static_cast<std::size_t>(v)] < 0) {
          dist[static_cast<std::size_t>(v)] =
              dist[static_cast<std::size_t>(u)] + 1;
          parent[static_cast<std::size_t>(v)] = u;
          q.push(v);
        } else if (parent[static_cast<std::size_t>(u)] != v) {
          const VertexId len = dist[static_cast<std::size_t>(u)] +
                               dist[static_cast<std::size_t>(v)] + 1;
          if (best < 0 || len < best) best = len;
        }
      }
    }
  }
  return best;
}

bool is_bipartite(const Graph& g) {
  std::vector<int> color(static_cast<std::size_t>(g.n()), -1);
  for (VertexId s = 0; s < g.n(); ++s) {
    if (color[static_cast<std::size_t>(s)] >= 0) continue;
    color[static_cast<std::size_t>(s)] = 0;
    std::queue<VertexId> q;
    q.push(s);
    while (!q.empty()) {
      const VertexId u = q.front();
      q.pop();
      for (VertexId v : g.neighbors(u)) {
        if (color[static_cast<std::size_t>(v)] < 0) {
          color[static_cast<std::size_t>(v)] =
              1 - color[static_cast<std::size_t>(u)];
          q.push(v);
        } else if (color[static_cast<std::size_t>(v)] ==
                   color[static_cast<std::size_t>(u)]) {
          return false;
        }
      }
    }
  }
  return true;
}

bool is_tree(const Graph& g) {
  return g.is_connected() && g.m() == g.n() - 1;
}

std::int64_t cycle_space_dimension(const Graph& g) {
  // m - n + c, where c is the number of connected components.
  std::int64_t components = 0;
  std::vector<char> seen(static_cast<std::size_t>(g.n()), 0);
  for (VertexId s = 0; s < g.n(); ++s) {
    if (seen[static_cast<std::size_t>(s)]) continue;
    ++components;
    std::queue<VertexId> q;
    q.push(s);
    seen[static_cast<std::size_t>(s)] = 1;
    while (!q.empty()) {
      const VertexId u = q.front();
      q.pop();
      for (VertexId v : g.neighbors(u)) {
        if (!seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = 1;
          q.push(v);
        }
      }
    }
  }
  return g.m() - g.n() + components;
}

}  // namespace specstab
