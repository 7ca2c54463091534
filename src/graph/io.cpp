#include "graph/io.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "util/parse_number.hpp"

namespace specstab {

std::string to_edge_list(const Graph& g) {
  std::ostringstream os;
  write_edge_list(os, g);
  return os.str();
}

void write_edge_list(std::ostream& os, const Graph& g) {
  os << "n " << g.n() << "\n";
  for (const auto& [u, v] : g.edges()) os << u << " " << v << "\n";
}

Graph from_edge_list(const std::string& text) {
  std::istringstream is(text);
  return read_edge_list(is);
}

Graph read_edge_list(std::istream& is) {
  std::string line;
  bool have_n = false;
  VertexId n = 0;
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream ls(line.substr(0, line.find('#')));
    const std::vector<std::string> tokens{
        std::istream_iterator<std::string>(ls),
        std::istream_iterator<std::string>()};
    if (tokens.empty()) continue;  // blank line
    if (tokens.size() > 2) {
      throw std::invalid_argument("read_edge_list: trailing tokens at line " +
                                  std::to_string(line_no));
    }
    if (tokens[0] == "n") {
      if (have_n) {
        throw std::invalid_argument("read_edge_list: duplicate 'n' header");
      }
      if (tokens.size() != 2 || parse_number(tokens[1], n) != std::errc() ||
          n < 0) {
        throw std::invalid_argument("read_edge_list: bad vertex count");
      }
      have_n = true;
      continue;
    }
    if (!have_n) {
      throw std::invalid_argument(
          "read_edge_list: edge before 'n' header (line " +
          std::to_string(line_no) + ")");
    }
    VertexId u = 0, v = 0;
    if (tokens.size() != 2 || parse_number(tokens[0], u) != std::errc() ||
        parse_number(tokens[1], v) != std::errc()) {
      throw std::invalid_argument("read_edge_list: bad edge at line " +
                                  std::to_string(line_no));
    }
    edges.emplace_back(u, v);
  }
  if (!have_n) throw std::invalid_argument("read_edge_list: missing 'n' header");
  return Graph(n, edges);  // Graph ctor validates ranges/duplicates
}

std::vector<std::vector<int>> adjacency_matrix(const Graph& g) {
  std::vector<std::vector<int>> m(
      static_cast<std::size_t>(g.n()),
      std::vector<int>(static_cast<std::size_t>(g.n()), 0));
  for (const auto& [u, v] : g.edges()) {
    m[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] = 1;
    m[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)] = 1;
  }
  return m;
}

std::vector<VertexId> degree_sequence(const Graph& g) {
  std::vector<VertexId> deg;
  deg.reserve(static_cast<std::size_t>(g.n()));
  for (VertexId v = 0; v < g.n(); ++v) deg.push_back(g.degree(v));
  std::sort(deg.rbegin(), deg.rend());
  return deg;
}

}  // namespace specstab
