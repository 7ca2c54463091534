// Runtime protocol registry: protocols as named, runtime-addressable
// data.
//
// The paper's framework (Section 2) is generic — speculation is defined
// over *any* protocol/specification pair — and this registry makes the
// code match: every protocol in the repo registers under a string name a
// factory bundling its ProtocolConcept type, default incremental
// legitimacy checker, state printer, init families and step-cap policy.
// Everything above the registry (the CLI's generic `run --protocol`, the
// campaign's protocol axis, the differential harness) addresses
// protocols by name and composes them freely with daemons, topologies
// and initial configurations.
//
// Type erasure lives only at this boundary.  Registration monomorphizes
// one dispatch record per protocol (see any_protocol.hpp): its run
// function is a compiled instantiation of the templated
// run_with_engine() pipeline (sim/parallel_engine.hpp), so the hot
// loops — ActionBuffer selection, the sparse dirty-set update, the
// sharded dense rescan, incremental checkers — stay fully inlined and a
// session pays exactly one indirect call, at launch.  The
// bench-regression CI job gates this: the campaign rows in
// BENCH_engine.json run through the erased path.
#ifndef SPECSTAB_SIM_PROTOCOL_REGISTRY_HPP
#define SPECSTAB_SIM_PROTOCOL_REGISTRY_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace specstab {

/// One requested execution, fully determined by strings and scalars —
/// the type-erased counterpart of (protocol, daemon, init, RunOptions).
struct SessionSpec {
  std::string daemon = "synchronous";  ///< make_daemon() name
  std::string init;                    ///< init family; empty: protocol default
  std::uint64_t seed = 42;             ///< feeds init + randomized daemons
  StepIndex max_steps = 0;             ///< 0: protocol-appropriate default
  EngineKind engine = EngineKind::kIncremental;
  /// Engine threads for the production engine's dense steps (CLI
  /// `--threads`); the reference engine ignores it.  Results are
  /// byte-identical at any value.
  unsigned threads = 1;
  /// Optional externally owned worker pool for the production engine (see
  /// RunOptions::pool): campaign workers and serve sessions thread their
  /// per-host-thread pool through here so back-to-back sessions skip
  /// thread spawning.  An execution resource, not part of the session's
  /// identity — to_canonical_string() excludes it
  /// (the same spec runs byte-identically with or without a pool).
  ShardPool* pool = nullptr;
  bool record_trace = false;           ///< expose the delta trace below
  /// Skip the rendered outputs (final_state, digest, notes): the
  /// campaign runner keeps only the numeric meters, so it does not pay
  /// per-vertex string formatting per scenario.
  bool meters_only = false;
  /// Fault-injection schedule (FaultSpec::parse() text, e.g.
  /// "periodic:period=32;k=2;epochs=4"); empty or "none" runs without
  /// fault injection.  See sim/fault_plan.hpp.
  std::string perturb;

  /// Canonical `,`-joined `key=value` text over the result-determining
  /// fields (daemon, engine, init, max_steps, perturb, seed, threads —
  /// alphabetical, every field spelled out, perturb
  /// canonicalized through FaultSpec).  The FaultSpec pattern from the
  /// fault-injection subsystem, one level up: the serve result cache,
  /// the CLI's session echo and tests all agree on this one spelling.
  /// The output-shape flags (record_trace, meters_only) are excluded on
  /// purpose — they select what a caller *renders*, not what the session
  /// computes.  Comma is safe as the field separator because every
  /// value — including the canonical fault text, which is comma-free by
  /// construction — excludes it.
  [[nodiscard]] std::string to_canonical_string() const;
};

/// Type-erased RunResult: the full metering surface plus the final
/// configuration rendered per vertex by the protocol's state printer.
/// `final_digest` is an FNV-1a hash over the printed states — two
/// sessions produced byte-identical final configurations iff their
/// printed states (and hence digests) match.
struct SessionResult {
  StepIndex steps = 0;
  std::int64_t moves = 0;
  StepIndex rounds = 0;
  bool terminated = false;
  bool hit_step_cap = false;
  bool converged = false;
  StepIndex convergence_steps = -1;   ///< -1 when not converged
  std::int64_t moves_to_convergence = 0;
  StepIndex rounds_to_convergence = 0;
  std::int64_t closure_violations = 0;

  // --- fault injection (SessionSpec::perturb; all empty/zero without) ---
  std::string perturb = "none";       ///< canonical FaultSpec::format()
  std::int64_t perturb_epochs = 0;    ///< perturbation epochs fired
  std::int64_t perturb_unrecovered = 0;  ///< epochs never re-converging
  std::vector<StepIndex> perturb_fire_steps;  ///< fire step per epoch
  /// Steps from each epoch's corrupted configuration to the first
  /// legitimate one; -1 when the epoch's window never re-converged.
  std::vector<StepIndex> recovery_steps;
  /// Service-time degradation per epoch for protocols with a privilege
  /// notion (SSME, Dijkstra's ring): steps from the corruption to the
  /// first privileged activation in the epoch's window, -1 when the
  /// window saw no service.  Empty for protocols without privileges.
  std::vector<StepIndex> service_stalls;

  std::vector<std::string> final_state;  ///< printed state per vertex
  std::uint64_t final_digest = 0;        ///< FNV-1a over final_state
  std::vector<std::string> notes;        ///< protocol-specific report lines

  /// Delta-trace view (SessionSpec::record_trace): number of recorded
  /// configurations, an on-demand reconstructor printing gamma_i
  /// (replays deltas from gamma_0 — O(i) per call), and a whole-trace
  /// materializer that streams the delta cursor once (O(changes) per
  /// step, the cheap path for "print every configuration").  The
  /// closures own the underlying DeltaTrace; configurations are rebuilt
  /// per call, never stored.
  StepIndex trace_length = 0;
  std::function<std::vector<std::string>(StepIndex)> trace_config;
  std::function<std::vector<std::vector<std::string>>()> trace_materialize;

  /// One delta record of the trace, type-erased: the activated (or, for
  /// perturbation records, victim) set plus the printed before/after
  /// states of the vertices that changed.  Applying `changes` of records
  /// 0..i-1 onto the printed gamma_0 reproduces trace_config(i) exactly
  /// — the contract the serve layer's streaming trace playback (and its
  /// client-side re-materialization test) is built on.
  struct TraceDeltaRecord {
    bool perturbation = false;
    std::vector<VertexId> activated;
    struct Change {
      VertexId v;
      std::string before;
      std::string after;
    };
    std::vector<Change> changes;
  };
  /// Record a in [0, trace_length - 1), on demand (O(changes) per call).
  std::function<TraceDeltaRecord(StepIndex)> trace_delta;
};

/// Registration metadata: what `specstab list` prints and what grid
/// expansion needs to prune meaningless combinations.
struct ProtocolInfo {
  std::string name;         ///< registry key, e.g. "dijkstra-ring"
  std::string description;  ///< one line for listings
  std::string state_model;  ///< human description of the vertex state
  /// Supported init family names; [0] is the default.
  std::vector<std::string> inits;
  /// The protocol is only defined on `ring N` topologies.
  bool ring_only = false;
  /// Silent protocol: the legitimate configurations are exactly the
  /// terminal ones, so a healthy session both converges *and*
  /// terminates (the CLI exit code checks both).
  bool silent = false;
  /// Init families whose configuration depends on the seed — the
  /// campaign keeps every repetition for these; deterministic families
  /// collapse to one rep under deterministic daemons.
  std::vector<std::string> seeded_inits = {"random"};

  [[nodiscard]] bool supports_init(const std::string& init) const;
  [[nodiscard]] bool init_is_seeded(const std::string& init) const;
  /// "random, zero, ..." — for listings and error messages.
  [[nodiscard]] std::string inits_joined() const;
};

/// One registered protocol: metadata plus the monomorphized dispatch
/// record.  `run_on` takes a pre-instantiated topology (graph + diameter,
/// the two costly per-topology artifacts the campaign runner caches);
/// run() is the convenience wrapper computing the diameter itself.
class ProtocolEntry {
 public:
  using RunFn =
      std::function<SessionResult(const Graph&, VertexId diam,
                                  const SessionSpec&)>;
  using CapFn = std::function<StepIndex(const Graph&, VertexId diam)>;

  ProtocolInfo info;
  RunFn run_on;
  /// The step cap a session runs with when SessionSpec::max_steps is 0 —
  /// also the campaign's a-priori cost estimate for heavy-first
  /// scheduling.
  CapFn default_step_cap;
  /// Whether make()/step_cap() read the diameter.  run() skips the
  /// all-vertices-BFS sweep for protocols that never look at it.
  bool needs_diameter = false;

  [[nodiscard]] bool supports_init(const std::string& init) const {
    return info.supports_init(init);
  }

  /// Runs on a fresh topology (computes the diameter only when the
  /// protocol needs it).  Throws std::invalid_argument on unknown
  /// daemon or unsupported init.
  [[nodiscard]] SessionResult run(const Graph& g,
                                  const SessionSpec& spec) const;
};

/// The process-wide registry.  instance() registers the nine built-in
/// protocols on first use; additional protocols may be added at any time
/// (e.g. from a plug-in translation unit's static initializer) via
/// add(), after which they are runnable from the CLI, sweepable in
/// campaigns and picked up by the registry-iterating tests — a protocol
/// is one traits struct plus one add() call away (see any_protocol.hpp).
/// Ring test backing ProtocolInfo::ring_only: the *index* ring (every v
/// adjacent to (v+1) mod n and no other edges) — exactly the adjacency
/// the ring protocols' index-arithmetic predecessors assume.  Checked on
/// the instantiated graph, so index rings loaded from files qualify;
/// cycles over permuted ids do not (their graph adjacency would not
/// match the protocol's arithmetic).
[[nodiscard]] bool is_ring_topology(const Graph& g);

class ProtocolRegistry {
 public:
  /// The singleton, with built-ins registered.
  [[nodiscard]] static ProtocolRegistry& instance();

  /// Registers a protocol; throws std::invalid_argument on duplicate
  /// names or empty metadata.
  void add(ProtocolEntry entry);

  /// Entry by name; throws std::invalid_argument listing the known names.
  [[nodiscard]] const ProtocolEntry& at(const std::string& name) const;

  /// Entry by name, or nullptr.
  [[nodiscard]] const ProtocolEntry* find(const std::string& name) const;

  /// Registered names, in registration order.
  [[nodiscard]] std::vector<std::string> names() const;

  /// A deque so references handed out by at()/find()/entries() stay
  /// valid across later add() calls (plug-ins may register while other
  /// code holds an entry).
  [[nodiscard]] const std::deque<ProtocolEntry>& entries() const {
    return entries_;
  }

 private:
  ProtocolRegistry();  // registers the built-ins

  std::deque<ProtocolEntry> entries_;
};

}  // namespace specstab

#endif  // SPECSTAB_SIM_PROTOCOL_REGISTRY_HPP
