// Communication graphs for the Dijkstra state model (paper, Section 2).
//
// A distributed system is an undirected, simple, connected graph g = (V, E):
// vertices are processes; edges are pairs of processes that can atomically
// read each other's state.  Vertices are identified by dense indices
// 0..n-1, which double as the process identities ID = {0, .., n-1} that the
// SSME protocol requires (paper, Section 4.1, citing Burns & Pachl).
#ifndef SPECSTAB_GRAPH_GRAPH_HPP
#define SPECSTAB_GRAPH_GRAPH_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace specstab {

/// Dense vertex index; also the process identity id_v in protocols that
/// need identities (SSME, matching).
using VertexId = std::int32_t;

/// Undirected simple graph with dense vertex ids and sorted adjacency in
/// CSR form: one offsets array (n + 1 entries) plus one flat neighbour
/// array, so a 10^7-vertex ring costs two contiguous allocations instead
/// of 10^7 vectors, and shard-range scans touch contiguous memory.
///
/// Invariants: no self-loops, no parallel edges, every neighbour row
/// sorted ascending.  Most algorithms additionally require connectivity;
/// the generators in generators.hpp only produce connected graphs, and
/// `is_connected()` is available for arbitrary inputs.
///
/// A Graph is immutable once constructed: the constructors build the CSR
/// arrays whole and no member function writes them, so any number of
/// threads may read one shared Graph concurrently from its first read
/// on.  A different edge set is a different Graph.
class Graph {
 public:
  Graph() = default;

  /// Creates a graph with `n` vertices and no edges.
  explicit Graph(VertexId n);

  /// Creates a graph from an explicit edge list (pairs may be in any
  /// order; duplicates and self-loops throw std::invalid_argument,
  /// out-of-range endpoints std::out_of_range).  Builds the CSR arrays
  /// in two passes.  `known_diameter` records diam(g) from a family's
  /// closed form, for the generators only: the diameter oracle test holds
  /// every recorded value equal to the all-pairs BFS value.  -1 records
  /// none.
  Graph(VertexId n, const std::vector<std::pair<VertexId, VertexId>>& edges,
        VertexId known_diameter = -1);

  /// Number of vertices (the paper's n = |V|).
  [[nodiscard]] VertexId n() const noexcept { return n_; }

  /// Number of edges (the paper's m = |E|).
  [[nodiscard]] std::int64_t m() const noexcept { return m_; }

  /// diam(g) as recorded by the generator that built this graph from its
  /// family's closed form, or -1 when none is recorded.  diameter()
  /// (properties.hpp) returns it in O(1) instead of sweeping the graph.
  [[nodiscard]] VertexId known_diameter() const noexcept {
    return known_diameter_;
  }

  /// True iff {u, v} is an edge.  O(log deg).
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;

  /// Sorted neighbours of v (the paper's neig(v)) as a view into the
  /// flat CSR neighbour array.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const {
    check_vertex(v);
    const auto i = static_cast<std::size_t>(v);
    return {targets_.data() + offsets_[i], targets_.data() + offsets_[i + 1]};
  }

  /// Degree of v.
  [[nodiscard]] VertexId degree(VertexId v) const {
    check_vertex(v);
    const auto i = static_cast<std::size_t>(v);
    return static_cast<VertexId>(offsets_[i + 1] - offsets_[i]);
  }

  /// The CSR arrays themselves: v's sorted neighbours are
  /// targets()[offsets()[v] .. offsets()[v + 1]).  offsets() has n + 1
  /// entries, targets() 2m.  Guard kernels stream these unchecked; a view
  /// is valid as long as the graph it came from.
  [[nodiscard]] std::span<const std::int64_t> offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] std::span<const VertexId> targets() const noexcept {
    return targets_;
  }

  /// All edges as (u, v) pairs with u < v, lexicographically sorted.
  [[nodiscard]] std::vector<std::pair<VertexId, VertexId>> edges() const;

  /// True iff the graph is connected (vacuously true for n <= 1).
  [[nodiscard]] bool is_connected() const;

  /// GraphViz "graph { .. }" rendering, for documentation and debugging.
  [[nodiscard]] std::string to_dot() const;

  friend bool operator==(const Graph& a, const Graph& b) {
    return a.n_ == b.n_ && a.offsets_ == b.offsets_ &&
           a.targets_ == b.targets_;
  }

 private:
  /// The range check of every accessor: one inline compare, the throw
  /// out of line.
  void check_vertex(VertexId v) const {
    if (v < 0 || v >= n_) [[unlikely]] throw_out_of_range(v);
  }
  [[noreturn]] void throw_out_of_range(VertexId v) const;

  VertexId n_ = 0;
  std::int64_t m_ = 0;
  VertexId known_diameter_ = -1;
  std::vector<std::int64_t> offsets_ = {0};
  std::vector<VertexId> targets_;
};

}  // namespace specstab

#endif  // SPECSTAB_GRAPH_GRAPH_HPP
