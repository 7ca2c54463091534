#include "core/ssme.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "core/theory.hpp"
#include "graph/properties.hpp"
#include "sim/protocol.hpp"

namespace specstab {

namespace {

constexpr std::int64_t kRegisterMax = std::numeric_limits<ClockValue>::max();

/// Narrows a clock quantity to the 32-bit register type, refusing systems
/// whose clock does not fit instead of letting the value wrap.
ClockValue to_register(std::int64_t value, const char* what, VertexId n,
                       VertexId diam) {
  if (value <= kRegisterMax) return static_cast<ClockValue>(value);
  std::string msg = std::string("SsmeParams: ") + what + " = ";
  msg += std::to_string(value) + " for n = " + std::to_string(n);
  msg += ", diam = " + std::to_string(diam);
  msg += " exceeds the 32-bit clock register limit ";
  throw std::invalid_argument(msg + std::to_string(kRegisterMax));
}

}  // namespace

static_assert(ProtocolConcept<SsmeProtocol>,
              "SsmeProtocol must satisfy ProtocolConcept");

SsmeParams SsmeParams::for_graph(const Graph& g) {
  if (!g.is_connected())
    throw std::invalid_argument("SsmeParams: graph must be connected");
  return from_dimensions(g.n(), diameter(g));
}

SsmeParams SsmeParams::from_dimensions(VertexId n, VertexId diam) {
  if (n < 1) throw std::invalid_argument("SsmeParams: need n >= 1");
  if (diam < 0) throw std::invalid_argument("SsmeParams: need diam >= 0");
  SsmeParams p;
  p.n = n;
  p.diam = diam;
  p.alpha = n;  // alpha = n >= hole(g) - 2
  // K = (2n-1)(diam+1) + 2 > n >= cyclo(g).  K exceeds every privileged
  // value 2n + 2 diam id by at least diam + 1, so K fitting the register
  // means they all do.
  p.k = to_register(ssme_clock_size(n, diam), "clock size K", n, diam);
  return p;
}

ClockValue SsmeParams::privileged_value(VertexId id) const {
  if (id < 0 || id >= n)
    throw std::out_of_range("SsmeParams::privileged_value: id");
  const std::int64_t base = 2 * static_cast<std::int64_t>(n);
  const std::int64_t spacing = 2 * static_cast<std::int64_t>(diam);
  return to_register(base + spacing * id, "privileged value", n, diam);
}

CherryClock SsmeParams::make_clock() const { return CherryClock(alpha, k); }

VertexId SsmeProtocol::count_privileged(const Graph& g,
                                        const ConfigView<State>& cfg) const {
  VertexId count = 0;
  for (VertexId v = 0; v < g.n(); ++v) {
    if (privileged(cfg, v)) ++count;
  }
  return count;
}

}  // namespace specstab
