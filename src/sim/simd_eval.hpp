// SimdEval — the per-protocol guard-kernel trait behind the production
// engine's dense steps.
//
// A dense step (parallel_engine.hpp; synchronous and dense distributed
// daemons) re-evaluates all n guards, sharded: each worker evaluates one
// contiguous vertex range.  A protocol opts into the kernel rescan by
// specializing SimdEval<P> next to the protocol:
//
//   template <>
//   struct SimdEval<MyProtocol> {
//     struct Context {
//       std::span<const std::int64_t> offsets;  // g.offsets()
//       std::span<const VertexId> targets;      // g.targets()
//     };
//     static Context make_context(const Graph& g, const MyProtocol&);
//     static void enabled_bytes(const Context&, const MyProtocol&,
//                               const ConfigView<MyProtocol::State>& cfg,
//                               std::uint8_t* out,
//                               MyProtocol::State* next,
//                               VertexId begin, VertexId end);
//   };
//
// make_context() runs once per execution, at its first dense step, and
// holds whatever the kernel streams: typically views of the graph's own
// CSR arrays (Graph::offsets() and Graph::targets()), which cost nothing
// to take.  So a context must not outlive its graph: the engine builds
// one per run and drops it when the run returns.  A Graph is immutable,
// so the shards read those arrays concurrently without synchronization.
// enabled_bytes() must, for every vertex v in [begin, end), write
//   out[v]  = proto.enabled(g, cfg, v) ? 1 : 0, and
//   next[v] = out[v] ? proto.apply(g, cfg, v) : cfg[v]
// bit-exactly: next is the configuration a synchronous step produces.
// The successor comes out of the same pass because the guard evaluation
// already knows which rule fired; the engine's next dense install reads
// it instead of calling apply() once per target, and a step that
// activates every enabled vertex installs the whole column with a
// buffer swap (see "Successor freshness" in parallel_engine.hpp).  The
// differential harness holds the engine to byte-identical RunResults
// against the reference engine, and tests/simd_eval_test.cpp holds every
// kernel to both equalities directly.  The range parameters exist for
// the shard fan-out (disjoint ranges touch disjoint out and next
// entries, so shards write concurrently without synchronization); one
// shard passes [0, n).
// Kernels are branch-light loops over the state column (cfg.column(),
// the store's one vector) and the graph's CSR arrays.  A CSR
// neighbour loop has a data-dependent trip count, so the compiler
// evaluates one vertex at a time there rather than vectorizing across
// vertices.  The unison kernel (which ssme forwards
// to) therefore adds a lattice path: on runs of vertices whose
// neighbours are v + delta for the graph's stencil (lattice_stencil()
// below: ring, path, grid and torus interiors), it loads the neighbour
// registers as shifted slices of the column and evaluates a group of
// vertices per step in int32 lanes: eight on an x86-64 CPU with AVX2,
// four otherwise.  The lanes are GCC/Clang vector extensions, so one
// source serves every target without intrinsics or architecture flags;
// the eight-lane tier is that source instantiated inside one function
// under target("avx2"), picked once per process from the CPU's
// features.  Its int32 arithmetic is exact for every register: see
// unison.cpp.  The engine packs the verdict bytes into 64-bit words
// (pack_verdict_word()) and feeds them to EnabledSet::fill_words().
//
// A dense step's legitimacy verdict has one route: each shard's rescan
// produces the partial violation total of its range, and the engine
// hands the shard-ordered sum to the checker's accept_total().  A
// specialization may compute that partial in the guard pass itself:
// declare a ScoreKind tag plus enabled_bytes_scored(), which writes the
// same guard bytes and successors AND returns the total violation score
// the tag's LocalScoreChecker would compute over [begin, end) (exactly
// its score_range() — same int64, no early exit; per-shard partial
// totals summed in shard order reproduce the full-scan total
// bit-exactly because the accumulation is int64 addition).  When the
// run's checker advertises the matching ScoreKind, the engine calls the
// scored kernel and skips the checker's own pass over the range — one
// pass over the column instead of two.  With any other score checker
// the shard calls enabled_bytes() and then the checker's score_range()
// over the same range, so the fusion is pay-as-you-match.
//
// Protocols without a specialization run on the engine's scalar rescan
// fallback (fill_verdicts() below), which writes verdicts only: their
// dense installs keep calling apply(), so the dense path stays
// registry-complete.
#ifndef SPECSTAB_SIM_SIMD_EVAL_HPP
#define SPECSTAB_SIM_SIMD_EVAL_HPP

#include <concepts>
#include <cstdint>
#include <vector>

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define SPECSTAB_SIMD_SSE2 1
#endif

#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/types.hpp"

namespace specstab {

/// The neighbour offsets most vertices of g share.  A vertex v follows
/// the stencil when its sorted neighbour list is exactly v + offsets[j]
/// (so every v + offsets[j] lies in [0, n)) and its degree is at least
/// 1.  Rings and paths have {-1, 1}, a rows x cols grid or torus
/// {-cols, -1, 1, cols}; the vertices that do not follow it (the ends of
/// a path, the wrap of a ring, the border of a grid or torus) are listed
/// in `irregular`.  A kernel can then read the neighbours of a run of
/// regular vertices as shifted slices of a state column.  When fewer
/// than half the vertices share one offset list, or the shared list is
/// empty, the graph has no stencil and both vectors are empty.
struct LatticeStencil {
  std::vector<std::int32_t> offsets;  ///< ascending; empty: no stencil
  std::vector<VertexId> irregular;    ///< ascending vertices off the stencil
};

/// g's stencil in O(n + m): a majority vote over the vertices' offset
/// lists compared in place, a pass counting the winner's vertices and,
/// when they are at least half, a pass listing the others.
[[nodiscard]] LatticeStencil lattice_stencil(const Graph& g);

/// 64 verdict bytes -> one bitmask word, bit b = (bytes[b] != 0).  The
/// caller guarantees 64 readable bytes (the engine pads its verdict
/// buffer to a 64-byte multiple, zeroed past the last vertex so
/// trailing bits fold to zero as EnabledSet requires).
[[nodiscard]] inline std::uint64_t pack_verdict_word(
    const std::uint8_t* bytes) {
#ifdef SPECSTAB_SIMD_SSE2
  // Byte-compare against zero + movemask: four 16-lane strides per word.
  std::uint64_t mask = 0;
  const __m128i zero = _mm_setzero_si128();
  for (int q = 0; q < 4; ++q) {
    const __m128i lanes = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(bytes + 16 * q));
    const auto z = static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(lanes, zero)));
    mask |= static_cast<std::uint64_t>(~z & 0xFFFFu) << (16 * q);
  }
  return mask;
#else
  std::uint64_t mask = 0;
  for (int b = 0; b < 64; ++b) {
    mask |= static_cast<std::uint64_t>(bytes[b] != 0) << b;
  }
  return mask;
#endif
}

/// Primary template: no vectorized kernels declared; the engine falls
/// back to the scalar per-vertex sweep for such protocols.
template <class P>
struct SimdEval {};

/// Protocol opts into the kernel rescan: SimdEval<P> declares a Context,
/// a once-per-run make_context() and the ranged enabled_bytes() guard
/// kernel, which writes verdicts and synchronous successors.
template <class P>
concept HasSimdEval =
    requires(const Graph& g, const P& p,
             const ConfigView<typename P::State>& cfg,
             const typename SimdEval<P>::Context& ctx, std::uint8_t* out,
             typename P::State* next, VertexId begin, VertexId end) {
      { SimdEval<P>::make_context(g, p) }
          -> std::same_as<typename SimdEval<P>::Context>;
      { SimdEval<P>::enabled_bytes(ctx, p, cfg, out, next, begin, end) }
          -> std::same_as<void>;
    };

// --- Score-fused kernels -------------------------------------------------
//
// Score kinds name a violation-score definition shared between a
// protocol's fused kernel and the LocalScoreChecker factory that counts
// the same scores (core/incremental_legitimacy.hpp).  The engine fuses
// the two scans only when the tags are identical types, so e.g. an
// SSME run under the mutex-safety checker never consumes a Gamma_1 total.

/// Gamma_1 violation count: vertices not locally legitimate (register in
/// stab, drift <= 1 to every neighbour).
struct Gamma1ScoreKind {};

/// The score kind a checker advertises, or void when it has none.  Lets
/// generic code (the engine, checker wrappers) read C::ScoreKind
/// without requiring it.
template <class C>
struct ScoreKindOf {
  using type = void;
};
template <class C>
  requires requires { typename C::ScoreKind; }
struct ScoreKindOf<C> {
  using type = typename C::ScoreKind;
};

/// Kernel with a fused legitimacy scan: enabled_bytes_scored() writes the
/// guard bytes and successors and returns the ScoreKind violation total
/// of [begin, end) in one pass.
template <class P>
concept HasScoredSimdEval =
    HasSimdEval<P> &&
    requires(const P& p, const ConfigView<typename P::State>& cfg,
             const typename SimdEval<P>::Context& ctx, std::uint8_t* out,
             typename P::State* next, VertexId begin, VertexId end) {
      typename SimdEval<P>::ScoreKind;
      {
        SimdEval<P>::enabled_bytes_scored(ctx, p, cfg, out, next, begin, end)
      } -> std::same_as<std::int64_t>;
    };

// --- Shared kernel state -------------------------------------------------

namespace simd_detail {

template <class P>
struct KernelState {
  typename SimdEval<P>::Context ctx;
  std::vector<std::uint8_t> verdicts;
  /// The synchronous successor of the configuration cfg of the latest
  /// fill_verdicts(): proto.apply(g, cfg, v) where the verdict is 1,
  /// cfg[v] elsewhere.
  std::vector<typename P::State> successors;
};

struct ScalarKernelState {
  std::vector<std::uint8_t> verdicts;
};

}  // namespace simd_detail

/// Once-per-run kernel state for the engine's dense steps: the
/// protocol's kernel Context and an n-entry successor column (when
/// SimdEval<P> is specialized) plus the verdict-byte buffer, padded to a
/// full 64-byte word and zeroed so bits past the last vertex pack to
/// zero.  The rescan loops run allocation-free against this.
template <class P>
[[nodiscard]] auto make_enabled_kernel(const Graph& g, const P& proto) {
  static_assert(HasSimdEval<P> || !requires { typename SimdEval<P>::Context; },
                "SimdEval<P> is declared but does not match the kernel "
                "contract (enabled_bytes must also take a State* next)");
  const auto n = static_cast<std::size_t>(g.n());
  const auto padded = (n + 63) / 64 * 64;
  if constexpr (HasSimdEval<P>) {
    return simd_detail::KernelState<P>{
        SimdEval<P>::make_context(g, proto),
        std::vector<std::uint8_t>(padded, 0),
        std::vector<typename P::State>(n)};
  } else {
    (void)proto;
    return simd_detail::ScalarKernelState{
        std::vector<std::uint8_t>(padded, 0)};
  }
}

/// Fills kernel.verdicts[begin..end) with fresh guard verdicts — through
/// the protocol's SimdEval kernel when one is declared, which also fills
/// kernel.successors[begin..end), and a scalar proto.enabled() sweep
/// otherwise — and returns the fused ScoreKind violation total of the
/// range when `Scored` (which requires a scored kernel), 0 otherwise.
/// Disjoint ranges touch disjoint verdict and successor entries, so the
/// engine's shards call this concurrently on one shared kernel state.
template <bool Scored, class P, class Kernel>
std::int64_t fill_verdicts(Kernel& kernel, const Graph& g, const P& proto,
                           const ConfigView<typename P::State>& cfg,
                           VertexId begin, VertexId end) {
  if constexpr (HasSimdEval<P>) {
    if constexpr (Scored) {
      static_assert(HasScoredSimdEval<P>);
      return SimdEval<P>::enabled_bytes_scored(
          kernel.ctx, proto, cfg, kernel.verdicts.data(),
          kernel.successors.data(), begin, end);
    } else {
      SimdEval<P>::enabled_bytes(kernel.ctx, proto, cfg,
                                 kernel.verdicts.data(),
                                 kernel.successors.data(), begin, end);
      return 0;
    }
  } else {
    static_assert(!Scored, "scored fill requires a scored kernel");
    for (VertexId v = begin; v < end; ++v) {
      kernel.verdicts[static_cast<std::size_t>(v)] =
          proto.enabled(g, cfg, v) ? 1 : 0;
    }
    return 0;
  }
}

}  // namespace specstab

#endif  // SPECSTAB_SIM_SIMD_EVAL_HPP
