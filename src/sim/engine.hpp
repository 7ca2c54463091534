// Execution engine for the Dijkstra state model.
//
// Runs a deterministic guarded-rule protocol under a daemon from a given
// initial configuration, with composite atomicity: all vertices activated
// in one action read the *pre-action* configuration.  The engine meters
// the three classical costs (steps = daemon actions, moves = vertex
// activations, rounds) and tracks convergence into a caller-supplied
// *legitimacy predicate* — the closed set whose first entry defines the
// stabilization time (paper, Definition 3 and Section 2).
//
// Because legitimacy predicates for the protocols here are closed under
// the protocol (Gamma_1 for unison/SSME, exact BFS distances for min+1,
// the single-token configurations for Dijkstra's ring, stable maximal
// matchings), convergence time equals `last_illegitimate + 1`; the engine
// reports both that and the first legitimate index so tests can verify
// closure empirically (they must coincide at the end of a long run).
#ifndef SPECSTAB_SIM_ENGINE_HPP
#define SPECSTAB_SIM_ENGINE_HPP

#include <functional>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/daemon.hpp"
#include "sim/fault_plan.hpp"
#include "sim/protocol.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace specstab {

class ShardPool;  // parallel_engine.hpp

/// Which execution engine drives a run: the production engine
/// (parallel_engine.hpp), which maintains the enabled set by dirty-set
/// propagation on sparse steps and by sharded, fused guard rescans on
/// dense ones, or the *reference* engine below, which rescans all n
/// vertices after every action with deliberately naive code and serves as
/// the differential-testing oracle.  Both produce bit-identical
/// RunResults for the same inputs.  kParallel is a synonym of
/// kIncremental, kept for callers written against the engine the
/// production engine absorbed.
enum class EngineKind {
  kIncremental,
  kReference,
  kParallel = kIncremental,
};

struct RunOptions {
  /// Hard cap on the number of actions.
  StepIndex max_steps = 100000;

  /// Engine selection, honored by the run_with_engine() dispatcher in
  /// parallel_engine.hpp (run_execution below always executes the
  /// reference algorithm regardless of this field).
  EngineKind engine = EngineKind::kIncremental;

  /// Worker threads for the production engine's dense steps (ignored by
  /// the reference engine).  Results are byte-identical at every thread
  /// count by construction; only wall clock differs.  1 runs every phase
  /// inline.
  unsigned threads = 1;

  /// Optional externally owned worker pool for the production engine
  /// (ignored by the reference engine).  When set, the engine reuses it
  /// instead of spawning threads per run — long-lived hosts (campaign
  /// workers, `specstab serve` sessions) keep one pool per host thread so
  /// back-to-back runs pay zero spawn cost.  The effective shard count
  /// is min(threads, pool->participants()); since results are
  /// thread-count invariant, the clamp never changes an outcome.  This
  /// is an execution resource, not part of a run's identity — session
  /// canonicalization ignores it.
  ShardPool* pool = nullptr;

  /// If set, stop this many actions after the first time the
  /// configuration satisfies the legitimacy predicate (useful to bound
  /// post-convergence work while still exercising closure).
  std::optional<StepIndex> steps_after_convergence;

  /// Record the execution trace (gamma_0 .. gamma_steps) in
  /// RunResult::trace as gamma_0 plus per-action deltas (activated set +
  /// changed-vertex before/after states); configurations are
  /// reconstructed on demand.  Meant for tests, spec checkers and the
  /// session API.
  bool record_trace = false;
};

template <class State>
struct RunResult {
  Config<State> final_config;

  StepIndex steps = 0;        ///< daemon actions executed
  std::int64_t moves = 0;     ///< total vertex activations
  StepIndex rounds = 0;       ///< completed asynchronous rounds

  bool terminated = false;    ///< reached a terminal configuration
  bool hit_step_cap = false;  ///< stopped by max_steps

  /// Index of the first configuration satisfying the legitimacy
  /// predicate; -1 if never.
  StepIndex first_legitimate = -1;
  /// Index of the last configuration violating it; -1 if none did.
  StepIndex last_illegitimate = -1;
  /// Moves executed strictly before configuration `last_illegitimate + 1`.
  std::int64_t moves_to_convergence = 0;
  /// Completed rounds at configuration `last_illegitimate + 1`.
  StepIndex rounds_to_convergence = 0;

  /// gamma_0 .. gamma_steps when RunOptions::record_trace, stored as
  /// deltas (see DeltaTrace).
  DeltaTrace<State> trace;

  /// Recovery-time record of the run's fault-injection epochs (empty
  /// when the run had no FaultPlan).  See sim/fault_plan.hpp.
  PerturbationStats perturb;

  /// Convergence time in actions: the index of the earliest configuration
  /// from which the run stayed legitimate (valid when converged()).
  [[nodiscard]] StepIndex convergence_steps() const {
    return last_illegitimate + 1;
  }

  /// True iff the run ended inside the legitimacy predicate having seen it
  /// hold continuously since convergence_steps().
  [[nodiscard]] bool converged() const { return first_legitimate >= 0; }
};

/// Per-action observer: called with (step index i, pre-configuration
/// gamma_i, activated set); the action produces gamma_{i+1}.
template <class State>
using StepObserver = std::function<void(
    StepIndex, ConfigView<State>, const std::vector<VertexId>&)>;

/// Legitimacy predicate over a configuration view.
template <class State>
using LegitimacyPredicate =
    std::function<bool(const Graph&, ConfigView<State>)>;

template <ProtocolConcept P>
RunResult<typename P::State> run_execution(
    const Graph& g, const P& proto, Daemon& daemon,
    Config<typename P::State> init, const RunOptions& opt,
    const LegitimacyPredicate<typename P::State>& legitimate,
    const StepObserver<typename P::State>& observer = nullptr,
    FaultPlan<typename P::State>* fault_plan = nullptr) {
  using State = typename P::State;
  RunResult<State> res;
  // A plain vector, not the production engine's ConfigStore: the oracle
  // shares no storage code with the engine it checks.  One view for the
  // whole run reads through it, so in-place writes stay visible.
  Config<State> cfg = std::move(init);
  const ConfigView<State> live(cfg);
  RoundCounter rc(g.n());

  bool pending_convergence_marker = false;
  bool legit_now = true;
  const auto note_legitimacy = [&](StepIndex cfg_index) {
    const bool legit = !legitimate || legitimate(g, live);
    legit_now = legit;
    if (fault_plan) fault_plan->meter().on_verdict(cfg_index, legit);
    if (legit) {
      if (res.first_legitimate < 0) res.first_legitimate = cfg_index;
      if (pending_convergence_marker) {
        // First legitimate configuration after the latest violation: the
        // costs so far are the costs to (re-)convergence.
        res.moves_to_convergence = res.moves;
        res.rounds_to_convergence = rc.completed_rounds();
        pending_convergence_marker = false;
      }
    } else {
      res.last_illegitimate = cfg_index;
      pending_convergence_marker = true;
    }
  };

  if (opt.record_trace) res.trace.start(live);
  note_legitimacy(0);

  auto enabled = enabled_vertices(g, proto, live);
  // Daemon scratch, reused across the whole execution (the daemon hot
  // path allocates nothing in steady state).  The rest of this loop stays
  // deliberately naive — fresh rescans and vectors per action — because
  // this engine is the differential-testing oracle.
  ActionBuffer action;
  StepIndex since_convergence = 0;
  while (res.steps < opt.max_steps) {
    // Fault injection: corrupt the configuration in place (no step, no
    // move — the adversary is not the daemon), then recompute the enabled
    // set and the legitimacy verdict of the perturbed configuration.  A
    // plan also fires when the run stalls so silent protocols cannot
    // terminate with epochs pending.
    if (fault_plan && fault_plan->due(res.steps, enabled.empty())) {
      const Perturbation<State>& pert = fault_plan->fire(g, live, res.steps);
      if (opt.record_trace) {
        for (std::size_t i = 0; i < pert.victims.size(); ++i) {
          const auto v = static_cast<std::size_t>(pert.victims[i]);
          res.trace.note_change(pert.victims[i], live.get(v), pert.values[i]);
        }
        res.trace.seal_perturbation(pert.victims);
      }
      for (std::size_t i = 0; i < pert.victims.size(); ++i) {
        cfg[static_cast<std::size_t>(pert.victims[i])] = pert.values[i];
      }
      enabled = enabled_vertices(g, proto, live);
      note_legitimacy(res.steps);
      continue;
    }
    if (enabled.empty()) {
      res.terminated = true;
      break;
    }
    // Under fault injection the post-convergence stop must wait for the
    // last epoch's recovery: epochs exhausted and currently legitimate.
    if (opt.steps_after_convergence && res.first_legitimate >= 0 &&
        since_convergence >= *opt.steps_after_convergence &&
        (!fault_plan || (fault_plan->exhausted() && legit_now))) {
      break;
    }

    daemon.select_into(g, enabled, res.steps, action);
    const std::vector<VertexId>& activated = action.active;
    if (observer) observer(res.steps, live, activated);

    // Composite atomicity: compute all successor states against the
    // pre-action configuration, then install them.
    std::vector<std::pair<VertexId, State>> updates;
    updates.reserve(activated.size());
    for (VertexId v : activated) {
      updates.emplace_back(v, proto.apply(g, live, v));
    }
    if (opt.record_trace) {
      for (const auto& [v, s] : updates) {
        res.trace.note_change(v, live.get(static_cast<std::size_t>(v)), s);
      }
      res.trace.seal_action(activated);
    }
    for (const auto& [v, s] : updates) cfg[static_cast<std::size_t>(v)] = s;

    res.moves += static_cast<std::int64_t>(activated.size());
    ++res.steps;
    if (res.first_legitimate >= 0) ++since_convergence;

    auto enabled_after = enabled_vertices(g, proto, live);
    rc.on_action(enabled, activated, enabled_after);
    enabled = std::move(enabled_after);

    note_legitimacy(res.steps);
  }
  res.hit_step_cap = !res.terminated && res.steps >= opt.max_steps;
  res.rounds = rc.completed_rounds();
  if (fault_plan) res.perturb = fault_plan->finish();

  // If legitimacy was lost after having been seen, the earliest
  // configuration "from which every execution satisfies spec" is after the
  // last violation; reflect that in first_legitimate.
  if (res.first_legitimate >= 0 &&
      res.first_legitimate <= res.last_illegitimate) {
    res.first_legitimate =
        (res.last_illegitimate < res.steps) ? res.last_illegitimate + 1 : -1;
  }

  res.final_config = std::move(cfg);
  return res;
}

/// Convenience overload without a legitimacy predicate (runs to the step
/// cap or a terminal configuration).
template <ProtocolConcept P>
RunResult<typename P::State> run_execution(const Graph& g, const P& proto,
                                           Daemon& daemon,
                                           Config<typename P::State> init,
                                           const RunOptions& opt) {
  return run_execution(g, proto, daemon, std::move(init), opt, nullptr);
}

}  // namespace specstab

#endif  // SPECSTAB_SIM_ENGINE_HPP
