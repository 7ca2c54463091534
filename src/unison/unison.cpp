#include "unison/unison.hpp"

#include <stdexcept>

#include "sim/protocol.hpp"

namespace specstab {

static_assert(ProtocolConcept<UnisonProtocol>,
              "UnisonProtocol must satisfy ProtocolConcept");

bool UnisonProtocol::correct(const ConfigView<State>& cfg, VertexId v,
                             VertexId u) const {
  const State rv = cfg[static_cast<std::size_t>(v)];
  const State ru = cfg[static_cast<std::size_t>(u)];
  return clock_.in_stab(rv) && clock_.in_stab(ru) &&
         clock_.ring_distance(rv, ru) <= 1;
}

bool UnisonProtocol::all_correct(const Graph& g, const ConfigView<State>& cfg,
                                 VertexId v) const {
  for (VertexId u : g.neighbors(v)) {
    if (!correct(cfg, v, u)) return false;
  }
  return true;
}

bool UnisonProtocol::normal_step(const Graph& g, const ConfigView<State>& cfg,
                                 VertexId v) const {
  // NA guard: r_v in stab and, for every neighbour u, correct_v(u) and
  // r_v <=_l r_u.  Since bar(r_u - r_v) <= 1 already implies
  // d_K(r_v, r_u) <= 1, the two neighbour conditions collapse to one
  // projection per neighbour (single pass; the dominant guard on the
  // dense synchronous path).
  const State rv = cfg[static_cast<std::size_t>(v)];
  if (!clock_.in_stab(rv)) return false;
  for (VertexId u : g.neighbors(v)) {
    const State ru = cfg[static_cast<std::size_t>(u)];
    if (!clock_.in_stab(ru)) return false;
    if (clock_.ring_projection(static_cast<std::int64_t>(ru) - rv) > 1) {
      return false;
    }
  }
  return true;
}

bool UnisonProtocol::converge_step(const Graph& g, const ConfigView<State>& cfg,
                                   VertexId v) const {
  const State rv = cfg[static_cast<std::size_t>(v)];
  if (!clock_.in_init_star(rv)) return false;
  for (VertexId u : g.neighbors(v)) {
    const State ru = cfg[static_cast<std::size_t>(u)];
    if (!clock_.in_init(ru)) return false;
    if (!clock_.le_init(rv, ru)) return false;
  }
  return true;
}

bool UnisonProtocol::reset_init(const Graph& g, const ConfigView<State>& cfg,
                                VertexId v) const {
  return !all_correct(g, cfg, v) &&
         !clock_.in_init(cfg[static_cast<std::size_t>(v)]);
}

bool UnisonProtocol::enabled(const Graph& g, const ConfigView<State>& cfg,
                             VertexId v) const {
  return normal_step(g, cfg, v) || converge_step(g, cfg, v) ||
         reset_init(g, cfg, v);
}

UnisonProtocol::State UnisonProtocol::apply(const Graph& g,
                                            const ConfigView<State>& cfg,
                                            VertexId v) const {
  const State rv = cfg[static_cast<std::size_t>(v)];
  if (normal_step(g, cfg, v) || converge_step(g, cfg, v)) {
    return clock_.increment(rv);
  }
  if (reset_init(g, cfg, v)) return clock_.reset_value();
  throw std::logic_error("UnisonProtocol::apply on a disabled vertex");
}

std::string_view UnisonProtocol::rule_name(const Graph& g,
                                           const ConfigView<State>& cfg,
                                           VertexId v) const {
  if (normal_step(g, cfg, v)) return "NA";
  if (converge_step(g, cfg, v)) return "CA";
  if (reset_init(g, cfg, v)) return "RA";
  return "";
}

bool UnisonProtocol::locally_legitimate(const Graph& g,
                                        const ConfigView<State>& cfg,
                                        VertexId v) const {
  const State rv = cfg[static_cast<std::size_t>(v)];
  if (!clock_.in_stab(rv)) return false;
  for (VertexId u : g.neighbors(v)) {
    const State ru = cfg[static_cast<std::size_t>(u)];
    if (!clock_.in_stab(ru) || clock_.ring_distance(rv, ru) > 1) return false;
  }
  return true;
}

bool UnisonProtocol::legitimate(const Graph& g,
                                const ConfigView<State>& cfg) const {
  for (VertexId v = 0; v < g.n(); ++v) {
    if (!locally_legitimate(g, cfg, v)) return false;
  }
  return true;
}

bool UnisonProtocol::well_formed(const Graph& g,
                                 const ConfigView<State>& cfg) const {
  if (static_cast<VertexId>(cfg.size()) != g.n()) return false;
  for (std::size_t i = 0; i < cfg.size(); ++i) {
    if (!clock_.contains(cfg[i])) return false;
  }
  return true;
}

SimdEval<UnisonProtocol>::Context SimdEval<UnisonProtocol>::make_context(
    const Graph& g, const UnisonProtocol&) {
  return {flatten_adjacency(g)};
}

void SimdEval<UnisonProtocol>::enabled_bytes(const Context& ctx,
                                             const UnisonProtocol& proto,
                                             const ConfigView<ClockValue>& cfg,
                                             std::uint8_t* out,
                                             ClockValue* next, VertexId begin,
                                             VertexId end) {
  (void)enabled_bytes_scored(ctx, proto, cfg, out, next, begin, end);
}

std::int64_t SimdEval<UnisonProtocol>::enabled_bytes_scored(
    const Context& ctx, const UnisonProtocol& proto,
    const ConfigView<ClockValue>& cfg, std::uint8_t* out, ClockValue* next,
    VertexId begin, VertexId end) {
  // Bit-exact restatement of enabled() = NA || CA || RA with the guard
  // relations inlined branch-free.  All clock arithmetic runs in int64
  // like CherryClock::ring_projection, so corrupted int32 registers fold
  // identically; bar(.) of a difference needs at most one modulo and one
  // conditional add (both operands lie in (-(alpha + K), alpha + K) for
  // well-formed registers, and the modulo covers the rest).
  //
  // The allCorrect fold doubles as the Gamma_1 vertex slice: for deg >= 1
  // it already folds stab_v in, and an isolated vertex is locally
  // legitimate iff stab_v — so (ac & stab_v) ^ 1 is exactly the violation
  // score make_gamma1_checker() counts, accumulated here for free.
  //
  // The successor follows apply(): NA and CA (pairwise exclusive with
  // RA) increment, RA resets, and a disabled register keeps its value.
  // NA fires only on stab values and CA only on init* values, so phi is
  // rv + 1 with K - 1 wrapping to 0; computing it in int64 keeps
  // corrupted registers (whose increment is never used) free of
  // overflow.  The rule select is mask arithmetic: written as ternaries
  // it compiles to a branch on the rule, which mispredicts on every
  // irregular enabled pattern.
  const ClockValue* c = cfg.column();
  const std::int64_t k = proto.clock().k();
  const std::int64_t alpha = proto.clock().alpha();
  const std::int32_t* off = ctx.adj.offsets.data();
  const VertexId* tg = ctx.adj.targets.data();
  std::int64_t total = 0;
  for (VertexId v = begin; v < end; ++v) {
    const std::int64_t rv = c[static_cast<std::size_t>(v)];
    const unsigned stab_v = static_cast<unsigned>(rv >= 0 && rv < k);
    unsigned na = stab_v;                                          // NA
    unsigned ca = static_cast<unsigned>(rv >= -alpha && rv < 0);   // CA
    unsigned ac = 1;  // allCorrect_v (vacuously true when deg(v) = 0)
    for (std::int32_t j = off[v]; j < off[v + 1]; ++j) {
      const std::int64_t ru = c[static_cast<std::size_t>(tg[j])];
      const unsigned stab_u = static_cast<unsigned>(ru >= 0 && ru < k);
      std::int64_t d = ru - rv;  // bar(ru - rv)
      if (d >= k || d <= -k) [[unlikely]] d %= k;
      d += k & -static_cast<std::int64_t>(d < 0);
      const std::int64_t dist = d <= k - d ? d : k - d;  // d_K(rv, ru)
      na &= stab_u & static_cast<unsigned>(d <= 1);
      ca &= static_cast<unsigned>(ru >= -alpha && ru <= 0 && rv <= ru);
      ac &= stab_v & stab_u & static_cast<unsigned>(dist <= 1);
    }
    const unsigned init_v = static_cast<unsigned>(rv >= -alpha && rv <= 0);
    const unsigned ra = (ac ^ 1u) & (init_v ^ 1u);  // RA
    out[v] = static_cast<std::uint8_t>(na | ca | ra);
    const std::int64_t phi = (rv + 1) & -static_cast<std::int64_t>(rv + 1 != k);
    const auto inc = -static_cast<std::int64_t>(na | ca);  // all ones: NA/CA
    const auto moves = -static_cast<std::int64_t>(na | ca | ra);
    const std::int64_t moved = (phi & inc) | (-alpha & ~inc);
    next[v] = static_cast<ClockValue>((moved & moves) | (rv & ~moves));
    total += (ac & stab_v) ^ 1u;
  }
  return total;
}

}  // namespace specstab
