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
             const std::vector<std::pair<VertexId, VertexId>>& edges)
    : Graph(n) {
  // Two-pass CSR build: count degrees, prefix-sum into offsets, scatter
  // both directions, then sort each row and reject duplicates.  O(m log
  // maxdeg) with two flat allocations — no per-edge staging.
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
}

void Graph::check_vertex(VertexId v) const {
  if (v < 0 || v >= n_) {
    throw std::out_of_range("Graph: vertex " + std::to_string(v) +
                            " out of range [0, " + std::to_string(n_) + ")");
  }
}

void Graph::add_edge(VertexId u, VertexId v) {
  check_vertex(u);
  check_vertex(v);
  if (u == v) {
    throw std::invalid_argument("Graph: self-loop on vertex " +
                                std::to_string(u));
  }
  if (has_edge(u, v)) {
    throw std::invalid_argument("Graph: duplicate edge {" + std::to_string(u) +
                                ", " + std::to_string(v) + "}");
  }
  pending_.emplace_back(u, v);
  pending_keys_.insert(edge_key(u, v));
  ++m_;
  known_diameter_ = -1;
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  check_vertex(u);
  check_vertex(v);
  if (u == v) return false;
  if (!pending_keys_.empty() && pending_keys_.count(edge_key(u, v)) > 0) {
    return true;
  }
  const auto* lo = targets_.data() + offsets_[static_cast<std::size_t>(u)];
  const auto* hi = targets_.data() + offsets_[static_cast<std::size_t>(u) + 1];
  return std::binary_search(lo, hi, v);
}

void Graph::flush() const {
  // Fold the staged edges into fresh CSR arrays: grow each touched
  // row, copy the old sorted prefix, append the staged endpoints, and
  // re-sort only rows that grew.  Repeatable under interleaved
  // add_edge()/read sequences.
  std::vector<std::int64_t> grow(static_cast<std::size_t>(n_), 0);
  for (const auto& [u, v] : pending_) {
    ++grow[static_cast<std::size_t>(u)];
    ++grow[static_cast<std::size_t>(v)];
  }
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(n_) + 1, 0);
  for (VertexId v = 0; v < n_; ++v) {
    const auto old_sz = offsets_[static_cast<std::size_t>(v) + 1] -
                        offsets_[static_cast<std::size_t>(v)];
    offsets[static_cast<std::size_t>(v) + 1] =
        offsets[static_cast<std::size_t>(v)] + old_sz +
        grow[static_cast<std::size_t>(v)];
  }
  std::vector<VertexId> targets(static_cast<std::size_t>(offsets.back()));
  std::vector<std::int64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (VertexId v = 0; v < n_; ++v) {
    const auto old_lo = offsets_[static_cast<std::size_t>(v)];
    const auto old_hi = offsets_[static_cast<std::size_t>(v) + 1];
    std::copy(targets_.data() + old_lo, targets_.data() + old_hi,
              targets.data() + cursor[static_cast<std::size_t>(v)]);
    cursor[static_cast<std::size_t>(v)] += old_hi - old_lo;
  }
  for (const auto& [u, v] : pending_) {
    targets[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] =
        v;
    targets[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] =
        u;
  }
  for (VertexId v = 0; v < n_; ++v) {
    if (grow[static_cast<std::size_t>(v)] == 0) continue;
    std::sort(targets.begin() + offsets[static_cast<std::size_t>(v)],
              targets.begin() + offsets[static_cast<std::size_t>(v) + 1]);
  }
  offsets_ = std::move(offsets);
  targets_ = std::move(targets);
  pending_.clear();
  pending_keys_.clear();
}

std::vector<std::pair<VertexId, VertexId>> Graph::edges() const {
  ensure_flushed();
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
  ensure_flushed();
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
