// SSME — Speculatively Stabilizing Mutual Exclusion (paper, Section 4,
// Algorithm 1).
//
// SSME *is* the Boulinier-Petit-Villain asynchronous unison run on the
// bounded clock cherry(alpha = n, K = (2n-1)(diam(g)+1)+2), plus the
// privilege predicate
//
//     privileged_v  ==  ( r_v = 2n + 2 diam(g) id_v )
//
// which never interferes with the protocol's moves.  In any legitimate
// unison configuration (Gamma_1) all registers are pairwise within ring
// distance diam(g), while distinct privileged values are at ring distance
// >= 2 diam(g) from each other (and > diam(g) from 0 across the
// wrap-around), so at most one vertex can be privileged: safety.  Liveness
// follows from the unison's infinitely-often increments.
//
// The protocol is (ud, sd, Theta(diam n^3), Theta(diam))-speculatively
// stabilizing: self-stabilizing under the unfair distributed daemon
// (Theorem 1, bound Theorem 3) and stabilizing in ceil(diam/2) steps under
// the synchronous daemon (Theorem 2), which is optimal (Theorem 4).
#ifndef SPECSTAB_CORE_SSME_HPP
#define SPECSTAB_CORE_SSME_HPP

#include <cstdint>
#include <string_view>

#include "clock/cherry_clock.hpp"
#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/types.hpp"
#include "unison/unison.hpp"

namespace specstab {

/// The paper's parameter choice for a given system.
struct SsmeParams {
  VertexId n = 0;        ///< number of processes
  VertexId diam = 0;     ///< diam(g)
  ClockValue alpha = 0;  ///< tail length: n
  ClockValue k = 0;      ///< ring size: (2n-1)(diam+1)+2

  /// Computes n, diam(g) and the derived clock parameters.  Requires a
  /// connected graph.
  [[nodiscard]] static SsmeParams for_graph(const Graph& g);

  /// Parameters from already-known n and diameter (avoids the BFS sweep
  /// when the caller has them).
  [[nodiscard]] static SsmeParams from_dimensions(VertexId n, VertexId diam);

  /// The unique register value at which process `id` is privileged:
  /// 2n + 2 diam id.
  [[nodiscard]] ClockValue privileged_value(VertexId id) const;

  [[nodiscard]] CherryClock make_clock() const;
};

class SsmeProtocol {
 public:
  using State = ClockValue;

  explicit SsmeProtocol(SsmeParams params)
      : params_(params), unison_(params.make_clock()) {}

  /// Builds the protocol with the paper's parameters for g.
  [[nodiscard]] static SsmeProtocol for_graph(const Graph& g) {
    return SsmeProtocol(SsmeParams::for_graph(g));
  }

  [[nodiscard]] const SsmeParams& params() const noexcept { return params_; }
  [[nodiscard]] const UnisonProtocol& unison() const noexcept {
    return unison_;
  }
  [[nodiscard]] const CherryClock& clock() const noexcept {
    return unison_.clock();
  }

  // --- ProtocolConcept (delegated to the unison; the privileged
  //     predicate does not interfere with the protocol) ---

  [[nodiscard]] bool enabled(const Graph& g, const ConfigView<State>& cfg,
                             VertexId v) const {
    return unison_.enabled(g, cfg, v);
  }
  [[nodiscard]] State apply(const Graph& g, const ConfigView<State>& cfg,
                            VertexId v) const {
    return unison_.apply(g, cfg, v);
  }
  [[nodiscard]] std::string_view rule_name(const Graph& g,
                                           const ConfigView<State>& cfg,
                                           VertexId v) const {
    return unison_.rule_name(g, cfg, v);
  }

  // --- Mutual exclusion view ---

  /// privileged_v in the given configuration.
  [[nodiscard]] bool privileged(const ConfigView<State>& cfg,
                                VertexId v) const {
    return cfg[static_cast<std::size_t>(v)] == params_.privileged_value(v);
  }

  /// Number of simultaneously privileged vertices.
  [[nodiscard]] VertexId count_privileged(const Graph& g,
                                          const ConfigView<State>& cfg) const;

  /// spec_ME safety slice: at most one vertex privileged.
  [[nodiscard]] bool mutex_safe(const Graph& g,
                                const ConfigView<State>& cfg) const {
    return count_privileged(g, cfg) <= 1;
  }

  /// Gamma_1 membership of the underlying unison (closed legitimacy set;
  /// inside it spec_ME holds — proof of Theorem 1).
  [[nodiscard]] bool legitimate(const Graph& g,
                                const ConfigView<State>& cfg) const {
    return unison_.legitimate(g, cfg);
  }

 private:
  SsmeParams params_;
  UnisonProtocol unison_;
};

/// Vectorized guard kernel: SSME's rules and successors *are* the
/// unison's (the privileged predicate never interferes with the moves),
/// so the kernel forwards to SimdEval<UnisonProtocol> on the underlying
/// substrate, and runs the lattice tier the CPU picked there (eight
/// lanes with AVX2, four otherwise).
template <>
struct SimdEval<SsmeProtocol> {
  using ScoreKind = SimdEval<UnisonProtocol>::ScoreKind;
  using Context = SimdEval<UnisonProtocol>::Context;
  static Context make_context(const Graph& g, const SsmeProtocol& proto) {
    return SimdEval<UnisonProtocol>::make_context(g, proto.unison());
  }
  static void enabled_bytes(const Context& ctx, const SsmeProtocol& proto,
                            const ConfigView<ClockValue>& cfg,
                            std::uint8_t* out, ClockValue* next,
                            VertexId begin, VertexId end) {
    SimdEval<UnisonProtocol>::enabled_bytes(ctx, proto.unison(), cfg, out,
                                            next, begin, end);
  }
  static std::int64_t enabled_bytes_scored(const Context& ctx,
                                           const SsmeProtocol& proto,
                                           const ConfigView<ClockValue>& cfg,
                                           std::uint8_t* out, ClockValue* next,
                                           VertexId begin, VertexId end) {
    return SimdEval<UnisonProtocol>::enabled_bytes_scored(
        ctx, proto.unison(), cfg, out, next, begin, end);
  }
};

}  // namespace specstab

#endif  // SPECSTAB_CORE_SSME_HPP
