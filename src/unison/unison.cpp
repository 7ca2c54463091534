#include "unison/unison.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

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

namespace {

// --- Lane arithmetic of the guard kernel ----------------------------------
//
// The rules are written once over a lane type L: one std::int32_t (a
// vertex read through the flattened adjacency) or Lane4, four int32 lanes
// in one 16-byte GCC/Clang vector (four consecutive lattice vertices; one
// SSE2 register on x86-64, lowered by the compiler on other targets).
// Truth values are masks, 0 or -1 per lane, so the rule select is and/or
// arithmetic in both instantiations.
//
// int32 is exact for every register, without int64 and without division:
// the ring difference bar(r_u - r_v) only matters when both registers are
// in stab = [0, K), where r_u - r_v lies in (-K, K) and one conditional +K
// projects it (K <= INT32_MAX).  Elsewhere the differences are masked out
// by stab_u / stab_v and are don't-care, so they, and phi's r_v + 1, are
// computed with unsigned wraparound to stay defined on corrupted
// registers.  With d = bar(r_u - r_v) in [0, K), d_K(r_v, r_u) <= 1 is
// d <= 1 || d >= K - 1.
//
// Comparisons are strict (x <= 1 is written x < 2) and x in [0, K) is
// one unsigned compare: SSE2 compares with > and == only, so x >= y would
// cost a negation per compare.

using Lane4 = std::int32_t __attribute__((vector_size(16)));
using ULane4 = std::uint32_t __attribute__((vector_size(16)));

/// bool -> 0 / -1; a vector comparison already yields 0 / -1 per lane.
constexpr std::int32_t lane_mask(bool b) {
  return -static_cast<std::int32_t>(b);
}
inline Lane4 lane_mask(Lane4 m) { return m; }

inline std::uint32_t as_unsigned(std::int32_t x) {
  return static_cast<std::uint32_t>(x);
}
inline std::int32_t as_signed(std::uint32_t x) {
  return static_cast<std::int32_t>(x);
}
inline ULane4 as_unsigned(Lane4 x) {
  return __builtin_convertvector(x, ULane4);
}
inline Lane4 as_signed(ULane4 x) { return __builtin_convertvector(x, Lane4); }

/// Two's-complement a + b and a - b (unsigned wraparound).
template <class L>
L wrap_add(L a, L b) { return as_signed(as_unsigned(a) + as_unsigned(b)); }
template <class L>
L wrap_sub(L a, L b) { return as_signed(as_unsigned(a) - as_unsigned(b)); }

/// x in [0, bound) as one unsigned compare.
template <class L>
L below(L x, L bound) { return lane_mask(as_unsigned(x) < as_unsigned(bound)); }

template <class L>
L splat(std::int32_t x) {
  if constexpr (std::is_same_v<L, Lane4>) {
    return Lane4{x, x, x, x};
  } else {
    return x;
  }
}

inline Lane4 load4(const ClockValue* p) {
  Lane4 x{};
  std::memcpy(&x, p, sizeof x);
  return x;
}

/// The cherry clock's bounds as strict comparison operands, one copy per
/// lane (alpha, K <= INT32_MAX, so none of them overflows).
template <class L>
struct ClockLanes {
  explicit ClockLanes(const CherryClock& clock)
      : zero(splat<L>(0)),
        one(splat<L>(1)),
        two(splat<L>(2)),
        k(splat<L>(clock.k())),
        k_minus_2(splat<L>(clock.k() - 2)),
        neg_alpha(splat<L>(-clock.alpha())),
        below_stem(splat<L>(-clock.alpha() - 1)) {}
  L zero, one, two, k, k_minus_2, neg_alpha, below_stem;
};

/// The guard pass of one lane group: construct from r_v, fold() every
/// neighbour register r_u, then settle().  `isolated` is -1 in the lanes
/// of degree-0 vertices, whose allCorrect holds vacuously.
template <class L>
struct RuleFold {
  RuleFold(L r, L isolated, const ClockLanes<L>& c)
      : rv(r),
        stab_v(below(r, c.k)),
        na(stab_v),
        ca(lane_mask(r > c.below_stem) & lane_mask(r < c.zero)),
        ac(stab_v | isolated) {}

  void fold(L ru, const ClockLanes<L>& c) {
    const L stab_u = below(ru, c.k);
    L d = wrap_sub(ru, rv);
    d = wrap_add(d, c.k & lane_mask(d < c.zero));  // bar(r_u - r_v)
    const L near = lane_mask(d < c.two);
    na &= stab_u & near;
    // r_u in init and r_v <= r_u; r_u >= -alpha follows from r_v >=
    // -alpha wherever ca still holds.
    ca &= lane_mask(ru < c.one) & ~lane_mask(rv > ru);
    ac &= stab_u & (near | lane_mask(d > c.k_minus_2));
  }

  L rv, stab_v;
  L na, ca, ac;  // NA and CA guards, allCorrect_v
};

/// What a lane group's rules decide.
template <class L>
struct Settled {
  L moves;      // NA | CA | RA
  L next;       // phi(r_v) for NA / CA, -alpha for RA, r_v when disabled
  L violation;  // not locally legitimate (the Gamma_1 score)
};

/// The rule select of apply(): NA and CA (pairwise exclusive with RA)
/// increment, RA resets.  NA fires only on stab values and CA only on
/// init* values, so phi is r_v + 1 with K wrapping to 0.  The allCorrect
/// fold doubles as the Gamma_1 vertex slice: for deg >= 1 it includes
/// stab_v, and an isolated vertex is locally legitimate iff stab_v.
template <class L>
Settled<L> settle(const RuleFold<L>& f, const ClockLanes<L>& c) {
  const L init_v = lane_mask(f.rv > c.below_stem) & lane_mask(f.rv < c.one);
  const L ra = ~(f.ac | init_v);
  const L inc = f.na | f.ca;
  const L moves = inc | ra;
  const L p = wrap_add(f.rv, c.one);
  const L phi = p & ~lane_mask(p == c.k);
  const L moved = (phi & inc) | (c.neg_alpha & ~inc);
  return {moves, (moved & moves) | (f.rv & ~moves), ~(f.ac & f.stab_v)};
}

}  // namespace

SimdEval<UnisonProtocol>::Context SimdEval<UnisonProtocol>::make_context(
    const Graph& g, const UnisonProtocol&) {
  return {flatten_adjacency(g), lattice_stencil(g)};
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
  // Bit-exact restatement of enabled() = NA || CA || RA and of apply(),
  // plus the Gamma_1 violation count of make_gamma1_checker(), in the
  // lane arithmetic above.  Runs of stencil vertices go four at a time;
  // the others, and the tail of each run, one at a time through the
  // flattened adjacency.  Ranges may start and stop anywhere.
  const ClockValue* c = cfg.column();
  const std::int32_t* off = ctx.adj.offsets.data();
  const VertexId* tg = ctx.adj.targets.data();
  const ClockLanes<std::int32_t> c1(proto.clock());
  std::int64_t total = 0;
  const auto adjacency_walk = [&](VertexId from, VertexId to) {
    for (VertexId v = from; v < to; ++v) {
      RuleFold<std::int32_t> f(c[v], lane_mask(off[v] == off[v + 1]), c1);
      for (std::int32_t j = off[v]; j < off[v + 1]; ++j) f.fold(c[tg[j]], c1);
      const Settled<std::int32_t> s = settle(f, c1);
      out[v] = static_cast<std::uint8_t>(s.moves & 1);
      next[v] = s.next;
      total += s.violation & 1;
    }
  };
  const std::int32_t* stencil = ctx.lattice.offsets.data();
  const std::size_t degree = ctx.lattice.offsets.size();
  if (degree == 0) {
    adjacency_walk(begin, end);
    return total;
  }
  const ClockLanes<Lane4> c4(proto.clock());
  Lane4 violations = c4.zero;
  const VertexId* irr = ctx.lattice.irregular.data();
  const VertexId* irr_end = irr + ctx.lattice.irregular.size();
  irr = std::lower_bound(irr, irr_end, begin);
  VertexId v = begin;
  while (v < end) {
    // [v, stop) is a run of stencil vertices.
    const VertexId stop = irr == irr_end ? end : std::min(*irr, end);
    for (; stop - v >= 4; v += 4) {
      RuleFold<Lane4> f(load4(c + v), c4.zero, c4);
      for (std::size_t j = 0; j < degree; ++j) {
        f.fold(load4(c + (v + stencil[j])), c4);
      }
      const Settled<Lane4> s = settle(f, c4);
      std::memcpy(next + v, &s.next, sizeof s.next);
      for (int i = 0; i < 4; ++i) {
        out[v + i] = static_cast<std::uint8_t>(s.moves[i] & 1);
      }
      violations += s.violation & c4.one;
    }
    // The run's tail, then the irregular vertex that ends it.
    const VertexId resume = stop < end ? stop + 1 : end;
    adjacency_walk(v, resume);
    if (stop < end) ++irr;
    v = resume;
  }
  for (int i = 0; i < 4; ++i) total += violations[i];
  return total;
}

}  // namespace specstab
