// The production execution engine.
//
// The reference engine (engine.hpp) rescans all n vertices after every
// action with deliberately naive code and serves as the oracle.  This
// engine produces the same RunResults, bit for bit, by exploiting two
// properties of the state model:
//
//   - guards are local: `protocol_locality_radius()` bounds the footprint
//     of an activation to its radius-r ball, so only guards inside the
//     ball around the activated set can flip;
//   - composite atomicity: every activated vertex reads the *pre-action*
//     configuration, so computing successor states is embarrassingly
//     parallel.
//
// Every step — a daemon action or a fault epoch — runs one
// install-and-repair routine over its sorted target set.  Which path it
// takes depends only on the step's size (is_dense_update), never on the
// thread count:
//
//   *dense steps* (synchronous and dense distributed daemons) are sharded
//   over a ShardPool.  The vertex range is cut into contiguous shards
//   whose interior boundaries are multiples of 64, aligned to the
//   EnabledSet mask words, and shard k stays pinned to worker k for the
//   whole run.  Two barrier-separated phases:
//
//   1. *install* — shard k takes the successor states of the targets in
//      its range (read from the kernel's successor column when it is
//      fresh, computed with apply() otherwise; see below) and merges them
//      straight into the ConfigStore's inactive double buffer over its
//      own segment (dense_fill_range); a sequential O(1) buffer swap
//      (dense_commit) then publishes the new configuration.  A step
//      that activates every enabled vertex while the column is fresh
//      skips the phase: the column is the next configuration, swapped
//      in whole (ConfigStore::swap_in);
//   2. *fused guard rescan* — shard k evaluates its range through the
//      protocol's SimdEval kernel (simd_eval.hpp; a scalar sweep for
//      protocols without one), which also writes every vertex's
//      synchronous successor, and packs the verdict bytes into its own
//      mask words of the enabled set (fill_words).  A checker with a
//      per-vertex score (HasScoreRange) gets its shard's partial
//      violation total here: from the same kernel pass when kernel and
//      checker share a ScoreKind, from checker.score_range() over the
//      range otherwise.
//
//   The shard-ordered sums then finish the step: the enabled counts give
//   the set's size (EnabledSet::end_fill), and the partial totals give
//   the verdict through one checker.accept_total() — int64 addition, so
//   bit-exactly the full-scan total at every thread count.  Only
//   checkers without a per-vertex score (RescanChecker) take
//   on_update(); AlwaysLegitimate's score is 0 everywhere.  The words
//   are the enabled set; nothing decodes them into a sorted vector
//   unless a consumer asks (see below).
//
//   *select-all steps.*  A daemon whose selects_every_enabled() is true
//   (sd) is not asked to select: its action is the enabled set itself.
//   The engine lists that set (EnabledSet::vertices(), a ctz walk over
//   the words after a dense step) only for a consumer that reads the
//   list: an observer, the trace, a sparse step, a dense install without
//   a fresh column, or a checker without a per-vertex score.  A dense
//   synchronous step with a fresh column is therefore swap_in, one
//   sharded rescan phase and the shard-ordered sums: one barrier and no
//   serial O(n) pass.
//
//   *sparse steps* (central and sparse distributed daemons) run on the
//   calling thread as one batched dirty-set update: successors are
//   computed against the pre-step configuration and installed with
//   set(), one expand() yields the radius-r ball around all targets, the
//   ball's guards are re-tested into EnabledSet::note()/commit(), and the
//   same ball goes to a same-radius checker's on_update_ball().  The
//   round counter then neutralises only the vertices the ball turned
//   off, so a central step costs O(ball), not O(n) (the first action
//   after a fault epoch takes the full pass).
//
// A fault epoch differs from an action only in its bookkeeping: its
// successors come from the FaultPlan, its trace record is sealed as a
// perturbation, and it counts no step, move or round and calls no
// observer.
//
// Successor freshness.  A dense rescan leaves, next to the verdicts, the
// synchronous successor of the configuration the next step starts from
// (apply() of every enabled vertex, the current state of the others), so
// one guard pass per dense step serves both the enabled set and the next
// install.  The column is fresh exactly when the latest install (action
// or fault epoch) was dense and the protocol has a SimdEval kernel.  A
// sparse install changes states without refreshing it, so the column
// goes stale until the next dense rescan; the first dense step of a run
// (no kernel state yet), dense steps after a stale column and
// kernel-less protocols compute successors with apply().  Fault epochs
// always install the plan's successors.  Sparse steps never read or
// refresh the column: their cost stays O(ball).
//
// Fresh guard verdicts are pure functions of the post-step configuration,
// so the enabled set — and with it daemon selection, meters, traces and
// every later step — is identical at every thread count by construction.
// The differential suites hold the engine to the reference oracle at 1, 2
// and 8 threads, including shard counts that split words unevenly and
// graphs smaller than one word.
#ifndef SPECSTAB_SIM_PARALLEL_ENGINE_HPP
#define SPECSTAB_SIM_PARALLEL_ENGINE_HPP

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/daemon.hpp"
#include "sim/enabled_set.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"
#include "sim/simd_eval.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace specstab {

/// "incremental" | "reference".  The production engine's canonical name
/// is "incremental", so session strings and serve cache keys keep their
/// historical spelling.
[[nodiscard]] std::string_view engine_name(EngineKind kind);
/// Inverse of engine_name.  Also accepts "vector" and "parallel", the
/// names of engines folded into the production engine; throws
/// std::invalid_argument on unknown names.
[[nodiscard]] EngineKind engine_by_name(const std::string& name);

/// Persistent worker pool for the engine's dense steps: `extra_workers`
/// threads plus the calling thread execute one function per phase, each
/// pinned to a fixed index (worker i always runs fn(i + 1), the caller
/// fn(0)) — no task claiming, no mutex.  Phase hand-off is a
/// sense-reversing barrier over two atomics: the caller publishes the
/// phase and bumps an epoch counter, workers spin briefly on the epoch
/// and park on a futex (std::atomic::wait) when a phase doesn't arrive;
/// completion mirrors it with a remaining-workers countdown the caller
/// spins/parks on.  Per-phase cost on the hot path is therefore a few
/// cache-line transfers, not a mutex+condvar round trip.
///
/// A pool outlives individual runs: campaign workers and `specstab
/// serve` sessions keep one pool per host thread and hand it to the
/// engine through RunOptions::pool, so back-to-back runs pay zero
/// thread-spawn cost.  ShardPool(0) spawns no thread and runs every
/// phase inline.  A pool must not be driven by two runs concurrently
/// (one caller at a time).
class ShardPool {
 public:
  explicit ShardPool(unsigned extra_workers);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Extra workers + the calling thread: the maximum `active` for run().
  [[nodiscard]] std::size_t participants() const {
    return workers_.size() + 1;
  }

  /// Runs fn(0) .. fn(active - 1), each exactly once — fn(0) on the
  /// calling thread, fn(i) pinned to worker i - 1; returns after all
  /// complete.  active must be <= participants().  Not reentrant.  With
  /// active == 1 the call is a plain inline invocation: parked workers
  /// are not woken, so a large shared pool costs nothing to
  /// single-threaded runs.
  void run(std::size_t active, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop(std::size_t self);

  // Phase publication (written by the caller before the epoch bump, read
  // by workers after observing it).
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t active_ = 0;
  bool stop_ = false;
  // Spin budget before parking: 0 when the pool oversubscribes the host
  // (spinning would steal the working thread's quantum), a few thousand
  // pause iterations otherwise.  Set once at construction.
  int spin_limit_ = 0;

  // The barrier atomics live on their own cache lines: epoch_ is
  // caller-written/worker-read, remaining_ the reverse — sharing a line
  // would bounce it twice per phase.
  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  alignas(64) std::atomic<std::size_t> remaining_{0};
  alignas(64) std::atomic<unsigned> parked_{0};
  std::atomic<bool> caller_parked_{false};

  std::vector<std::thread> workers_;
};

namespace parallel_detail {

/// Contiguous vertex shards: shard k covers [bounds[k], bounds[k+1]).
/// Interior boundaries are rounded up to multiples of 64 so each shard
/// owns whole EnabledSet mask words (fill_words writes disjointly);
/// small graphs leave trailing shards empty, which every phase
/// tolerates.
inline std::vector<VertexId> shard_bounds(VertexId n, std::size_t shards) {
  std::vector<VertexId> bounds(shards + 1, 0);
  for (std::size_t k = 0; k <= shards; ++k) {
    const auto raw = static_cast<std::int64_t>(n) *
                     static_cast<std::int64_t>(k) /
                     static_cast<std::int64_t>(shards);
    bounds[k] = static_cast<VertexId>(
        std::min<std::int64_t>(static_cast<std::int64_t>(n),
                               (raw + 63) / 64 * 64));
  }
  bounds[shards] = n;
  return bounds;
}

}  // namespace parallel_detail

/// The production counterpart of run_execution(): same inputs, same
/// RunResult at every opt.threads value, O(|B(A, r)|) guard evaluations
/// per sparse step.
template <ProtocolConcept P, class C>
  requires IncrementalLegitimacy<C, typename P::State>
RunResult<typename P::State> run_execution_parallel(
    const Graph& g, const P& proto, Daemon& daemon,
    Config<typename P::State> init, const RunOptions& opt, C& checker,
    const StepObserver<typename P::State>& observer = nullptr,
    FaultPlan<typename P::State>* fault_plan = nullptr) {
  using State = typename P::State;
  RunResult<State> res;
  ConfigStore<State> cfg(std::move(init));
  // One view for the whole run: it reads through the store's member
  // buffers, so in-place set() and dense buffer swaps stay visible.
  const ConfigView<State> live = cfg.view();
  RoundCounter rc(g.n());
  const VertexId radius = protocol_locality_radius(proto);

  bool pending_convergence_marker = false;
  bool legit_now = true;
  const auto note_legitimacy = [&](StepIndex cfg_index, bool legit) {
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
  note_legitimacy(0, checker.init(g, live));

  EnabledSet enabled;
  enabled.reset(g.n());
  // The initial full scan is sequential; the shards below share the
  // immutable graph.
  enabled.assign(enabled_vertices(g, proto, live));

  // External pool (campaign / serve host threads) or a run-local one.
  // The shard count is the requested thread count clamped to the pool —
  // results are thread-count invariant, so the clamp never changes an
  // outcome.
  const std::size_t want = std::max(1u, opt.threads);
  std::optional<ShardPool> local_pool;
  ShardPool* pool = opt.pool;
  if (pool == nullptr) {
    local_pool.emplace(static_cast<unsigned>(want - 1));
    pool = &*local_pool;
  }
  const std::size_t shards = std::min(want, pool->participants());
  const auto bounds = parallel_detail::shard_bounds(g.n(), shards);
  const auto run_shards = [&](const std::function<void(std::size_t)>& fn) {
    pool->run(shards, fn);
  };

  // Whether this run's checker sums a per-vertex score, so that a dense
  // step's verdict is one accept_total() of the shards' partial totals.
  constexpr bool kScored = HasScoreRange<C, State>;
  // Whether the guard kernel computes those partial totals in its own
  // pass: kernel and checker must name the same (non-void) score
  // definition.  See simd_eval.hpp.
  constexpr bool kFusedScore = [] {
    if constexpr (HasScoreRange<C, State> && HasScoredSimdEval<P>) {
      using KernelKind = typename SimdEval<P>::ScoreKind;
      return !std::is_void_v<KernelKind> &&
             std::is_same_v<KernelKind, typename ScoreKindOf<C>::type>;
    } else {
      return false;
    }
  }();

  // Guard-kernel state (context + padded verdict bytes + successor
  // column), built on the first dense step so runs that never take one
  // skip its O(n + m) set-up.  Shards write disjoint verdict and
  // successor ranges, so one buffer of each serves all of them.
  std::optional<decltype(make_enabled_kernel(g, proto))> kernel;
  // Whether kernel->successors holds the synchronous successor of the
  // live configuration (see "Successor freshness" above).
  bool successors_fresh = false;

  NeighborhoodExpander expander(g.n());
  ActionBuffer action;
  std::vector<VertexId> round_base;
  std::vector<State> staged;
  std::vector<std::size_t> shard_counts(shards, 0);
  std::vector<std::int64_t> shard_scores(shards, 0);

  // Whether every action activates the whole enabled set (see
  // "select-all steps" above).  Read once: a daemon's class does not
  // change within a run.
  const bool select_all = daemon.selects_every_enabled();
  // Whether nothing reads a select-all action's list: no observer, no
  // trace, and a checker whose dense verdict is the shard totals.  Such
  // an action on a dense step with a fresh successor column is
  // swap_in_all() below.
  constexpr bool kSwapsAll = HasSimdEval<P> && kScored;
  const bool unlisted_select_all =
      kSwapsAll && select_all && !observer && !opt.record_trace;

  // The step being installed: its sorted target set and, for a fault
  // epoch, the given successor states (nullptr: an action, whose
  // successors are computed into `staged`).
  const std::vector<VertexId>* targets = nullptr;
  const State* given = nullptr;
  // After a sparse repair, the vertices it turned off (for the round
  // counter); nullptr after a dense one, whose words were rewritten.
  const std::vector<VertexId>* turned_off = nullptr;

  // The dense phase bodies are hoisted std::functions so the hot loop
  // never re-allocates closures; per-step state flows through the
  // captured locals above.

  // Dense phase 1 — install: shard k stages the successor states of its
  // target slice (the fresh kernel column, or apply()) and merges its
  // segment of the inactive double buffer.  No cross-shard reads: the
  // live buffer is immutable until dense_commit().
  const std::function<void(std::size_t)> dense_install_phase =
      [&](std::size_t k) {
        const std::vector<VertexId>& t = *targets;
        const auto a_lo = static_cast<std::size_t>(
            std::lower_bound(t.begin(), t.end(), bounds[k]) - t.begin());
        const auto a_hi = static_cast<std::size_t>(
            std::lower_bound(t.begin(), t.end(), bounds[k + 1]) - t.begin());
        if (given == nullptr) {
          if constexpr (HasSimdEval<P>) {
            if (successors_fresh) {
              const State* next = kernel->successors.data();
              for (std::size_t j = a_lo; j < a_hi; ++j) {
                staged[j] = next[static_cast<std::size_t>(t[j])];
              }
            }
          }
          if (!successors_fresh) {
            for (std::size_t j = a_lo; j < a_hi; ++j) {
              staged[j] = proto.apply(g, live, t[j]);
            }
          }
        }
        cfg.dense_fill_range(t, given != nullptr ? given : staged.data(),
                             a_lo, a_hi, static_cast<std::size_t>(bounds[k]),
                             static_cast<std::size_t>(bounds[k + 1]));
      };

  // Dense phase 2 — fused guard rescan over the shard's vertex range:
  // SimdEval kernel (or scalar sweep) into the shared verdict buffer and
  // successor column, packed into the shard's own mask words, and the
  // checker's partial score total of the range kept (fused or ranged).
  // The live configuration is read-only here, so score_range() may read
  // across the shard's bounds.
  const std::function<void(std::size_t)> dense_rescan_phase =
      [&](std::size_t k) {
        const VertexId lo = bounds[k];
        const VertexId hi = bounds[k + 1];
        shard_scores[k] =
            fill_verdicts<kFusedScore>(*kernel, g, proto, live, lo, hi);
        shard_counts[k] = enabled.fill_words(lo, hi, kernel->verdicts.data());
        if constexpr (kScored && !kFusedScore) {
          shard_scores[k] = checker.score_range(g, live, lo, hi);
        }
      };

  // Records one step in the trace.  The live view still reads the
  // pre-step states here (dense steps publish at dense_commit(), sparse
  // ones at set()).
  const auto record = [&](const std::vector<VertexId>& step_targets,
                          const State* after, bool perturbation) {
    for (std::size_t j = 0; j < step_targets.size(); ++j) {
      const auto i = static_cast<std::size_t>(step_targets[j]);
      res.trace.note_change(step_targets[j], live.get(i), after[j]);
    }
    if (perturbation) {
      res.trace.seal_perturbation(step_targets);
    } else {
      res.trace.seal_action(step_targets);
    }
  };

  // The tail of every dense step: the sharded rescan, then the
  // shard-ordered sums.  Publishes the enabled count (end_fill) and
  // returns the checker's merged partial totals.
  const auto dense_rescan = [&]() -> std::int64_t {
    if (!kernel) kernel.emplace(make_enabled_kernel(g, proto));
    run_shards(dense_rescan_phase);
    successors_fresh = HasSimdEval<P>;
    turned_off = nullptr;
    std::size_t enabled_count = 0;
    std::int64_t total = 0;
    for (std::size_t k = 0; k < shards; ++k) {
      enabled_count += shard_counts[k];
      total += shard_scores[k];
    }
    enabled.end_fill(enabled_count);
    return total;
  };

  // The dense half of install_and_repair below: the install phase (or a
  // buffer swap), the rescan, then one verdict — the merged partial
  // totals, or the checker's own update for a checker without a
  // per-vertex score.
  const auto dense_install_and_repair =
      [&](const std::vector<VertexId>& step_targets, const State* successors,
          bool perturbation) -> bool {
    targets = &step_targets;
    given = successors;
    if (successors == nullptr) staged.resize(step_targets.size());
    bool swapped = false;
    if constexpr (HasSimdEval<P>) {
      // A fresh column is the synchronous successor configuration, so a
      // step that activates every enabled vertex (targets are a subset
      // of equal size) installs it whole with a buffer swap.
      if (successors == nullptr && successors_fresh &&
          step_targets.size() == enabled.size()) {
        assert(step_targets == enabled.vertices());
        if (opt.record_trace) {
          for (std::size_t j = 0; j < step_targets.size(); ++j) {
            staged[j] =
                kernel->successors[static_cast<std::size_t>(step_targets[j])];
          }
          record(step_targets, staged.data(), perturbation);
        }
        cfg.swap_in(kernel->successors);
        swapped = true;
      }
    }
    if (!swapped) {
      cfg.dense_begin();
      run_shards(dense_install_phase);
      if (opt.record_trace) {
        record(step_targets,
               successors != nullptr ? successors : staged.data(),
               perturbation);
      }
      cfg.dense_commit();
    }
    if constexpr (kScored) {
      return checker.accept_total(dense_rescan());
    } else {
      // Before the rescan: a listed select-all action's targets are the
      // enabled set's cache, which end_fill() invalidates.
      const bool legit = checker.on_update(g, live, step_targets);
      dense_rescan();
      return legit;
    }
  };

  // A select-all action on a dense step whose list nothing reads (see
  // unlisted_select_all), with a fresh successor column: the column is
  // the synchronous successor configuration, installed whole with one
  // buffer swap, then the rescan.  No list and no serial O(n) pass.
  const auto swap_in_all = [&]() -> bool {
    if constexpr (kSwapsAll) {
      cfg.swap_in(kernel->successors);
      return checker.accept_total(dense_rescan());
    } else {
      return false;  // unreachable: unlisted_select_all needs kSwapsAll
    }
  };

  // Installs the successors of the sorted `step_targets` (composite
  // atomicity: all computed against the pre-step configuration), records
  // the trace, and repairs the enabled set and the checker.  Returns the
  // legitimacy verdict of the new configuration.  `successors` is nullptr
  // for a daemon action (the protocol computes them) and the plan's
  // corrupted states for a fault epoch.
  const auto install_and_repair =
      [&](const std::vector<VertexId>& step_targets, const State* successors,
          bool perturbation) -> bool {
    const std::size_t count = step_targets.size();
    if (is_dense_update(static_cast<std::int64_t>(count), radius, g)) {
      return dense_install_and_repair(step_targets, successors, perturbation);
    }
    // The configuration changes under the successor column.
    successors_fresh = false;
    const State* after = successors;
    if (after == nullptr) {
      staged.resize(count);
      for (std::size_t j = 0; j < count; ++j) {
        staged[j] = proto.apply(g, live, step_targets[j]);
      }
      after = staged.data();
    }
    if (opt.record_trace) record(step_targets, after, perturbation);
    for (std::size_t j = 0; j < count; ++j) {
      cfg.set(static_cast<std::size_t>(step_targets[j]), after[j]);
    }
    // Only guards inside the radius-r ball around the targets can have
    // flipped; the ball is shared with a same-radius checker instead of
    // letting it expand the same ball again.
    enabled.begin_update();
    const auto& dirty = expander.expand(g, step_targets, radius);
    for (VertexId v : dirty) enabled.note(v, proto.enabled(g, live, v));
    bool legit;
    if constexpr (HasBallUpdate<C, State>) {
      legit = checker.update_radius() == radius
                  ? checker.on_update_ball(g, live, dirty)
                  : checker.on_update(g, live, step_targets);
    } else {
      legit = checker.on_update(g, live, step_targets);
    }
    // commit() edits the sorted cache in place, and a listed select-all
    // action's targets are that cache: nothing reads them after it.
    enabled.commit();
    turned_off = &enabled.turned_off();
    return legit;
  };

  StepIndex since_convergence = 0;
  // Whether a fault epoch changed guards since the last action, which
  // the round counter's turned-off list does not show.
  bool epoch_since_action = false;
  while (res.steps < opt.max_steps) {
    // Fault injection: the epoch's corruption is installed and repaired
    // like an action whose successors come from the plan.  A plan also
    // fires when the run stalls so silent protocols cannot terminate with
    // epochs pending.
    if (fault_plan && fault_plan->due(res.steps, enabled.empty())) {
      const Perturbation<State>& pert = fault_plan->fire(g, live, res.steps);
      note_legitimacy(res.steps,
                      install_and_repair(pert.victims, pert.values.data(),
                                         /*perturbation=*/true));
      epoch_since_action = true;
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

    // The action.  A select-all daemon's is the enabled set: on a dense
    // step that nothing lists it is swap_in_all(), and otherwise the
    // set's own sorted cache, not a copy.  Any other daemon writes into
    // the loop-owned buffer (sorted, per the select_into contract).  A
    // sparse step runs without allocating once the buffers reach their
    // high-water capacity.
    const std::size_t enabled_before = enabled.size();
    std::size_t count = enabled_before;
    bool legit;
    if (unlisted_select_all && successors_fresh &&
        is_dense_update(static_cast<std::int64_t>(enabled_before), radius,
                        g)) {
      legit = swap_in_all();
    } else {
      if (!select_all) {
        daemon.select_into(g, enabled.view(), res.steps, action);
      }
      const std::vector<VertexId>& activated =
          select_all ? enabled.vertices() : action.active;
      assert(std::is_sorted(activated.begin(), activated.end()));
      if (observer) observer(res.steps, live, activated);
      count = activated.size();

      // The round counter reads the pre-action enabled set only when the
      // action opens a round it does not also complete; snapshot it then
      // (at most once per round, never on a select-all step) so the
      // repair can edit the set in place.
      if (rc.needs_enabled_before(enabled_before, count)) {
        round_base = enabled.vertices();
      }
      legit = install_and_repair(activated, nullptr, /*perturbation=*/false);
    }
    res.moves += static_cast<std::int64_t>(count);
    ++res.steps;
    if (res.first_legitimate >= 0) ++since_convergence;
    if (select_all) {
      rc.on_select_all();
    } else {
      rc.on_action(enabled_before, round_base, action.active, enabled.view(),
                   epoch_since_action ? nullptr : turned_off);
    }
    epoch_since_action = false;
    note_legitimacy(res.steps, legit);
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

  res.final_config = cfg.take();
  return res;
}

/// Convenience overload without a legitimacy checker.
template <ProtocolConcept P>
RunResult<typename P::State> run_execution_parallel(
    const Graph& g, const P& proto, Daemon& daemon,
    Config<typename P::State> init, const RunOptions& opt) {
  AlwaysLegitimate checker;
  return run_execution_parallel(g, proto, daemon, std::move(init), opt,
                                checker);
}

/// Engine dispatcher: runs the engine selected by opt.engine.  The
/// reference path evaluates the checker's from-scratch oracle once per
/// configuration, in execution order, so stateful wrappers (closure
/// counters) observe the same legitimacy sequence on both engines.
template <ProtocolConcept P, class C>
  requires IncrementalLegitimacy<C, typename P::State>
RunResult<typename P::State> run_with_engine(
    const Graph& g, const P& proto, Daemon& daemon,
    Config<typename P::State> init, const RunOptions& opt, C& checker,
    const StepObserver<typename P::State>& observer = nullptr,
    FaultPlan<typename P::State>* fault_plan = nullptr) {
  using State = typename P::State;
  if (opt.engine == EngineKind::kReference) {
    return run_execution(
        g, proto, daemon, std::move(init), opt,
        [&checker](const Graph& gg, ConfigView<State> c) {
          return checker.full(gg, c);
        },
        observer, fault_plan);
  }
  return run_execution_parallel(g, proto, daemon, std::move(init), opt,
                                checker, observer, fault_plan);
}

}  // namespace specstab

#endif  // SPECSTAB_SIM_PARALLEL_ENGINE_HPP
