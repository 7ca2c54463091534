#include "graph/graph.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <stdexcept>

namespace specstab {

Graph::Graph(VertexId n) {
  if (n < 0) throw std::invalid_argument("Graph: negative vertex count");
  n_ = n;
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
}

Graph::Graph(VertexId n,
             const std::vector<std::pair<VertexId, VertexId>>& edges,
             VertexId known_diameter)
    : Graph(n) {
  // Two-pass CSR build: count degrees, prefix-sum into offsets, scatter
  // both directions, then sort each row and reject duplicates.  O(m log
  // maxdeg) with two flat allocations.
  for (const auto& [u, v] : edges) {
    check_vertex(u);
    check_vertex(v);
    if (u == v) {
      throw std::invalid_argument("Graph: self-loop on vertex " +
                                  std::to_string(u));
    }
  }
  for (const auto& [u, v] : edges) {
    ++offsets_[static_cast<std::size_t>(u) + 1];
    ++offsets_[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    offsets_[i] += offsets_[i - 1];
  }
  targets_.resize(static_cast<std::size_t>(offsets_.back()));
  std::vector<std::int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    targets_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] =
        v;
    targets_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] =
        u;
  }
  for (VertexId u = 0; u < n_; ++u) {
    const auto lo = targets_.begin() + offsets_[static_cast<std::size_t>(u)];
    const auto hi =
        targets_.begin() + offsets_[static_cast<std::size_t>(u) + 1];
    std::sort(lo, hi);
    const auto dup = std::adjacent_find(lo, hi);
    if (dup != hi) {
      throw std::invalid_argument("Graph: duplicate edge {" +
                                  std::to_string(u) + ", " +
                                  std::to_string(*dup) + "}");
    }
  }
  m_ = static_cast<std::int64_t>(edges.size());
  known_diameter_ = known_diameter;
}

void Graph::throw_out_of_range(VertexId v) const {
  throw std::out_of_range("Graph: vertex " + std::to_string(v) +
                          " out of range [0, " + std::to_string(n_) + ")");
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  check_vertex(u);
  const auto row = neighbors(v);
  return std::binary_search(row.begin(), row.end(), u);
}

std::vector<std::pair<VertexId, VertexId>> Graph::edges() const {
  std::vector<std::pair<VertexId, VertexId>> out;
  out.reserve(static_cast<std::size_t>(m_));
  for (VertexId u = 0; u < n_; ++u) {
    for (const VertexId v : neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

bool Graph::is_connected() const {
  if (n_ <= 1) return true;
  std::vector<char> seen(static_cast<std::size_t>(n_), 0);
  std::queue<VertexId> q;
  q.push(0);
  seen[0] = 1;
  VertexId reached = 1;
  while (!q.empty()) {
    const VertexId u = q.front();
    q.pop();
    for (const VertexId v : neighbors(u)) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        ++reached;
        q.push(v);
      }
    }
  }
  return reached == n_;
}

std::string Graph::to_dot() const {
  std::ostringstream os;
  os << "graph g {\n";
  for (VertexId v = 0; v < n_; ++v) os << "  " << v << ";\n";
  for (const auto& [u, v] : edges()) os << "  " << u << " -- " << v << ";\n";
  os << "}\n";
  return os.str();
}

}  // namespace specstab
