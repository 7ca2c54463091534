#include "unison/unison.hpp"

#if SPECSTAB_LATTICE_AVX2
#include <cpuid.h>
#endif

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
// The rules are written once over a lane type Lanes<V>: V is one
// std::int32_t (a vertex read through the CSR adjacency) or a
// GCC/Clang vector of 4 or 8 int32 lanes (that many consecutive lattice
// vertices).  Four lanes fill one SSE2 register on x86-64 and are lowered
// by the compiler on other targets; eight fill one AVX2 register and are
// instantiated only inside the AVX2 tier below.  Truth values are masks,
// 0 or -1 per lane, so the rule select is and/or arithmetic at every width.
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
//
// Every helper is an always_inline template, so each tier inlines it in
// its own instruction set.  The register sits in a struct and the
// helpers take lanes by reference: no function signature carries a bare
// 32-byte vector, which GCC flags (-Wpsabi) and Clang diagnoses when it
// passes between a function built with AVX2 and one built without.

using Vec4 = std::int32_t __attribute__((vector_size(16)));
using UVec4 = std::uint32_t __attribute__((vector_size(16)));

template <class V>
struct UnsignedOf {
  using type = std::uint32_t;
};
template <>
struct UnsignedOf<Vec4> {
  using type = UVec4;
};

#if SPECSTAB_LATTICE_AVX2
using Vec8 = std::int32_t __attribute__((vector_size(32)));
using UVec8 = std::uint32_t __attribute__((vector_size(32)));
template <>
struct UnsignedOf<Vec8> {
  using type = UVec8;
};
#endif

template <class V>
struct Lanes {
  static constexpr int kWidth = sizeof(V) / sizeof(std::int32_t);
  V v;
};

/// A comparison's truth value as a mask: bool -> 0 / -1; a vector
/// comparison already yields 0 / -1 per lane.
template <class V, class Truth>
[[gnu::always_inline]] inline Lanes<V> mask(const Truth& t) {
  if constexpr (std::is_same_v<V, std::int32_t>) {
    return {-static_cast<std::int32_t>(t)};
  } else {
    return {t};
  }
}

/// x's lanes as uint32 (in a Lanes of the unsigned twin), and back.
template <class V>
[[gnu::always_inline]] inline auto as_unsigned(const Lanes<V>& x) {
  using U = typename UnsignedOf<V>::type;
  if constexpr (std::is_same_v<V, std::int32_t>) {
    return Lanes<U>{static_cast<U>(x.v)};
  } else {
    return Lanes<U>{__builtin_convertvector(x.v, U)};
  }
}
template <class V, class U>
[[gnu::always_inline]] inline Lanes<V> as_signed(const U& x) {
  if constexpr (std::is_same_v<V, std::int32_t>) {
    return {static_cast<std::int32_t>(x)};
  } else {
    return {__builtin_convertvector(x, V)};
  }
}

template <class V>
[[gnu::always_inline]] inline Lanes<V> operator&(const Lanes<V>& a,
                                                 const Lanes<V>& b) {
  return {a.v & b.v};
}
template <class V>
[[gnu::always_inline]] inline Lanes<V> operator|(const Lanes<V>& a,
                                                 const Lanes<V>& b) {
  return {a.v | b.v};
}
template <class V>
[[gnu::always_inline]] inline Lanes<V> operator~(const Lanes<V>& a) {
  return {~a.v};
}
template <class V>
[[gnu::always_inline]] inline Lanes<V>& operator&=(Lanes<V>& a,
                                                   const Lanes<V>& b) {
  a.v &= b.v;
  return a;
}
template <class V>
[[gnu::always_inline]] inline Lanes<V> operator<(const Lanes<V>& a,
                                                 const Lanes<V>& b) {
  return mask<V>(a.v < b.v);
}
template <class V>
[[gnu::always_inline]] inline Lanes<V> operator>(const Lanes<V>& a,
                                                 const Lanes<V>& b) {
  return mask<V>(a.v > b.v);
}
template <class V>
[[gnu::always_inline]] inline Lanes<V> operator==(const Lanes<V>& a,
                                                  const Lanes<V>& b) {
  return mask<V>(a.v == b.v);
}

/// Two's-complement a + b and a - b (unsigned wraparound).
template <class V>
[[gnu::always_inline]] inline Lanes<V> wrap_add(const Lanes<V>& a,
                                                const Lanes<V>& b) {
  return as_signed<V>(as_unsigned(a).v + as_unsigned(b).v);
}
template <class V>
[[gnu::always_inline]] inline Lanes<V> wrap_sub(const Lanes<V>& a,
                                                const Lanes<V>& b) {
  return as_signed<V>(as_unsigned(a).v - as_unsigned(b).v);
}

/// x in [0, bound) as one unsigned compare.
template <class V>
[[gnu::always_inline]] inline Lanes<V> below(const Lanes<V>& x,
                                             const Lanes<V>& bound) {
  return mask<V>(as_unsigned(x).v < as_unsigned(bound).v);
}

template <class V>
[[gnu::always_inline]] inline Lanes<V> splat(std::int32_t x) {
  return {V{} + x};
}

/// Lanes<V>::kWidth consecutive registers from p.
template <class V>
[[gnu::always_inline]] inline Lanes<V> load(const ClockValue* p) {
  Lanes<V> x{};
  std::memcpy(&x.v, p, sizeof x.v);
  return x;
}

/// The cherry clock's bounds as strict comparison operands, one copy per
/// lane (alpha, K <= INT32_MAX, so none of them overflows).
template <class V>
struct ClockLanes {
  [[gnu::always_inline]] explicit ClockLanes(const CherryClock& clock)
      : zero(splat<V>(0)),
        one(splat<V>(1)),
        two(splat<V>(2)),
        k(splat<V>(clock.k())),
        k_minus_2(splat<V>(clock.k() - 2)),
        neg_alpha(splat<V>(-clock.alpha())),
        below_stem(splat<V>(-clock.alpha() - 1)) {}
  Lanes<V> zero, one, two, k, k_minus_2, neg_alpha, below_stem;
};

/// The guard pass of one lane group: construct from r_v, fold() every
/// neighbour register r_u, then settle().  `isolated` is -1 in the lanes
/// of degree-0 vertices, whose allCorrect holds vacuously.
template <class V>
struct RuleFold {
  [[gnu::always_inline]] RuleFold(const Lanes<V>& r, const Lanes<V>& isolated,
                                  const ClockLanes<V>& c)
      : rv(r),
        stab_v(below(r, c.k)),
        na(stab_v),
        ca((r > c.below_stem) & (r < c.zero)),
        ac(stab_v | isolated) {}

  [[gnu::always_inline]] void fold(const Lanes<V>& ru,
                                   const ClockLanes<V>& c) {
    const Lanes<V> stab_u = below(ru, c.k);
    Lanes<V> d = wrap_sub(ru, rv);
    d = wrap_add(d, c.k & (d < c.zero));  // bar(r_u - r_v)
    const Lanes<V> near = d < c.two;
    na &= stab_u & near;
    // r_u in init and r_v <= r_u; r_u >= -alpha follows from r_v >=
    // -alpha wherever ca still holds.
    ca &= (ru < c.one) & ~(rv > ru);
    ac &= stab_u & (near | (d > c.k_minus_2));
  }

  Lanes<V> rv, stab_v;
  Lanes<V> na, ca, ac;  // NA and CA guards, allCorrect_v
};

/// What a lane group's rules decide.
template <class V>
struct Settled {
  Lanes<V> moves;      // NA | CA | RA
  Lanes<V> next;       // phi(r_v) for NA / CA, -alpha for RA, r_v when disabled
  Lanes<V> violation;  // not locally legitimate (the Gamma_1 score)
};

/// The rule select of apply(): NA and CA (pairwise exclusive with RA)
/// increment, RA resets.  NA fires only on stab values and CA only on
/// init* values, so phi is r_v + 1 with K wrapping to 0.  The allCorrect
/// fold doubles as the Gamma_1 vertex slice: for deg >= 1 it includes
/// stab_v, and an isolated vertex is locally legitimate iff stab_v.
template <class V>
[[gnu::always_inline]] inline Settled<V> settle(const RuleFold<V>& f,
                                                const ClockLanes<V>& c) {
  const Lanes<V> init_v = (f.rv > c.below_stem) & (f.rv < c.one);
  const Lanes<V> ra = ~(f.ac | init_v);
  const Lanes<V> inc = f.na | f.ca;
  const Lanes<V> moves = inc | ra;
  const Lanes<V> p = wrap_add(f.rv, c.one);
  const Lanes<V> phi = p & ~(p == c.k);
  const Lanes<V> moved = (phi & inc) | (c.neg_alpha & ~inc);
  return {moves, (moved & moves) | (f.rv & ~moves), ~(f.ac & f.stab_v)};
}

/// One group of Lanes<V>::kWidth stencil vertices from v: their verdicts
/// and successors written, their Gamma_1 violations added to `violations`.
template <class V>
[[gnu::always_inline]] inline void stencil_group(
    const ClockValue* c, const std::int32_t* stencil, std::size_t degree,
    const ClockLanes<V>& lanes, VertexId v, std::uint8_t* out, ClockValue* next,
    Lanes<V>& violations) {
  RuleFold<V> f(load<V>(c + v), lanes.zero, lanes);
  for (std::size_t j = 0; j < degree; ++j) {
    f.fold(load<V>(c + (v + stencil[j])), lanes);
  }
  const Settled<V> s = settle(f, lanes);
  std::memcpy(next + v, &s.next.v, sizeof s.next.v);
  for (int i = 0; i < Lanes<V>::kWidth; ++i) {
    out[v + i] = static_cast<std::uint8_t>(s.moves.v[i] & 1);
  }
  violations.v += (s.violation & lanes.one).v;
}

template <class V>
[[gnu::always_inline]] inline std::int64_t lane_sum(const Lanes<V>& x) {
  std::int64_t total = 0;
  for (int i = 0; i < Lanes<V>::kWidth; ++i) total += x.v[i];
  return total;
}

/// Vertices [from, to) one at a time through the CSR adjacency: their
/// verdicts and successors written, their Gamma_1 violation count
/// returned.
[[gnu::always_inline]] inline std::int64_t adjacency_walk(
    const SimdEval<UnisonProtocol>::Context& ctx,
    const ClockLanes<std::int32_t>& c1, const ClockValue* c,
    std::uint8_t* out, ClockValue* next, VertexId from, VertexId to) {
  const std::int64_t* off = ctx.offsets.data();
  const VertexId* tg = ctx.targets.data();
  std::int64_t total = 0;
  for (VertexId v = from; v < to; ++v) {
    RuleFold<std::int32_t> f({c[v]}, mask<std::int32_t>(off[v] == off[v + 1]),
                             c1);
    for (std::int64_t j = off[v]; j < off[v + 1]; ++j) f.fold({c[tg[j]]}, c1);
    const Settled<std::int32_t> s = settle(f, c1);
    out[v] = static_cast<std::uint8_t>(s.moves.v & 1);
    next[v] = s.next.v;
    total += s.violation.v & 1;
  }
  return total;
}

/// Bit-exact restatement of enabled() = NA || CA || RA and of apply(),
/// plus the Gamma_1 violation count of make_gamma1_checker(), over
/// [begin, end) in the lane arithmetic above.  Runs of stencil vertices
/// go Lanes<V>::kWidth at a time, then, in a tier wider than four lanes,
/// four at a time once more; the other vertices, and the tail of each
/// run, one at a time through the CSR adjacency.  Ranges may start
/// and stop anywhere.  Each tier inlines this template into its own
/// entry point, in that entry point's instruction set.
template <class V>
[[gnu::always_inline]] inline std::int64_t lattice_scored(
    const SimdEval<UnisonProtocol>::Context& ctx, const UnisonProtocol& proto,
    const ClockValue* c, std::uint8_t* out, ClockValue* next, VertexId begin,
    VertexId end) {
  const ClockLanes<std::int32_t> c1(proto.clock());
  const std::int32_t* stencil = ctx.lattice.offsets.data();
  const std::size_t degree = ctx.lattice.offsets.size();
  if (degree == 0) return adjacency_walk(ctx, c1, c, out, next, begin, end);
  constexpr int kWidth = Lanes<V>::kWidth;
  const ClockLanes<V> lanes(proto.clock());
  Lanes<V> violations = lanes.zero;
  // The trailing four-lane group of a wider tier (unused at four lanes).
  const ClockLanes<Vec4> lanes4(proto.clock());
  Lanes<Vec4> violations4 = lanes4.zero;
  std::int64_t total = 0;
  const VertexId* irr = ctx.lattice.irregular.data();
  const VertexId* irr_end = irr + ctx.lattice.irregular.size();
  irr = std::lower_bound(irr, irr_end, begin);
  VertexId v = begin;
  while (v < end) {
    // [v, stop) is a run of stencil vertices.
    const VertexId stop = irr == irr_end ? end : std::min(*irr, end);
    for (; stop - v >= kWidth; v += kWidth) {
      stencil_group(c, stencil, degree, lanes, v, out, next, violations);
    }
    if constexpr (kWidth > 4) {
      if (stop - v >= 4) {
        stencil_group(c, stencil, degree, lanes4, v, out, next, violations4);
        v += 4;
      }
    }
    // The run's tail, then the irregular vertex that ends it.
    const VertexId resume = stop < end ? stop + 1 : end;
    total += adjacency_walk(ctx, c1, c, out, next, v, resume);
    if (stop < end) ++irr;
    v = resume;
  }
  return total + lane_sum(violations) + lane_sum(violations4);
}

#if SPECSTAB_LATTICE_AVX2
/// Whether this CPU runs AVX2 code: CPUID.1:ECX has OSXSAVE (bit 27) and
/// AVX (bit 28), XCR0 shows the OS saving XMM and YMM state (bits 1-2),
/// and CPUID.(7,0):EBX has AVX2 (bit 5).  A direct probe rather than
/// __builtin_cpu_supports(), which links in libgcc's start-up
/// constructor and so runs its own CPUID sequence in every process.
bool cpu_runs_avx2() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & bit_OSXSAVE) == 0 || (ecx & bit_AVX) == 0) return false;
  unsigned xcr0 = 0;
  unsigned xcr0_high = 0;
  __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
  if ((xcr0 & 0x6u) != 0x6u) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & bit_AVX2) != 0;
}
#endif

/// The tier this process runs: the widest the CPU supports, chosen on
/// the first call.
using ScoredTier = std::int64_t (*)(const SimdEval<UnisonProtocol>::Context&,
                                    const UnisonProtocol&,
                                    const ConfigView<ClockValue>&,
                                    std::uint8_t*, ClockValue*, VertexId,
                                    VertexId);
ScoredTier dispatched_tier() {
  static const ScoredTier tier = []() -> ScoredTier {
#if SPECSTAB_LATTICE_AVX2
    if (cpu_runs_avx2()) {
      return &unison_detail::enabled_bytes_scored_8lane;
    }
#endif
    return &unison_detail::enabled_bytes_scored_4lane;
  }();
  return tier;
}

}  // namespace

namespace unison_detail {

std::int64_t enabled_bytes_scored_4lane(
    const SimdEval<UnisonProtocol>::Context& ctx, const UnisonProtocol& proto,
    const ConfigView<ClockValue>& cfg, std::uint8_t* out, ClockValue* next,
    VertexId begin, VertexId end) {
  return lattice_scored<Vec4>(ctx, proto, cfg.column(), out, next, begin, end);
}

#if SPECSTAB_LATTICE_AVX2
__attribute__((target("avx2"))) std::int64_t enabled_bytes_scored_8lane(
    const SimdEval<UnisonProtocol>::Context& ctx, const UnisonProtocol& proto,
    const ConfigView<ClockValue>& cfg, std::uint8_t* out, ClockValue* next,
    VertexId begin, VertexId end) {
  return lattice_scored<Vec8>(ctx, proto, cfg.column(), out, next, begin, end);
}
#endif

int lattice_lanes() {
  return dispatched_tier() == &enabled_bytes_scored_4lane ? 4 : 8;
}

}  // namespace unison_detail

SimdEval<UnisonProtocol>::Context SimdEval<UnisonProtocol>::make_context(
    const Graph& g, const UnisonProtocol&) {
  return {g.offsets(), g.targets(), lattice_stencil(g)};
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
  return dispatched_tier()(ctx, proto, cfg, out, next, begin, end);
}

}  // namespace specstab
