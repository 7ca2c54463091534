// Parallel campaign execution.
//
// run_campaign() expands a grid into work items and executes them on a
// std::thread pool.  Work is stolen at *rep* granularity: every expanded
// scenario is a single repetition of its cell (expand_grid() emits one
// item per rep, each with a seed derived purely from its grid
// coordinates — see scenario_seed()), so the reps of one cell spread
// across all workers instead of serializing behind one thread.  Work
// distribution is a single atomic cursor over a deterministic schedule
// permutation; every result is written into its own pre-allocated slot
// (rows[i] belongs exclusively to the item with index i), so no lock is
// ever taken and the result table is bit-identical at any thread count
// and under any schedule: each item's randomness comes only from its
// coordinate-derived seed, never from which thread ran it or when.
//
// The schedule is *heavy-first* (longest-processing-time): items
// are ordered by an a-priori cost estimate (the resolved step cap, a
// function of the protocol bound on the instantiated topology) so the
// dominating cells — ring-128 under central daemons in the thm3 preset —
// start immediately and overlap with the long tail of small cells,
// instead of straggling behind an idle pool.  This is the makespan
// optimum achievable without splitting a single execution.
#ifndef SPECSTAB_CAMPAIGN_RUNNER_HPP
#define SPECSTAB_CAMPAIGN_RUNNER_HPP

#include "campaign/campaign.hpp"
#include "campaign/scenario.hpp"
#include "sim/engine.hpp"

namespace specstab::campaign {

struct RunnerOptions {
  /// 0: use std::thread::hardware_concurrency().
  unsigned threads = 0;

  /// 0: per-protocol default (Theorem-3 bound multiples for SSME,
  /// Theta(n^2) multiples for Dijkstra's ring).  Applied to every item
  /// whose Scenario::max_steps is 0.
  StepIndex max_steps_override = 0;

  /// Execution engine for every run: the production engine by default,
  /// the full-rescan reference engine as the escape hatch (CLI
  /// `--engine reference`).  Results are bit-identical either way; only
  /// wall-clock differs.
  EngineKind engine = EngineKind::kIncremental;

  /// Engine threads per scenario for the production engine's dense
  /// steps (CLI `--engine-threads`; the reference engine ignores it).
  /// Each campaign worker keeps one persistent ShardPool sized for this
  /// and reuses it across all its scenarios, so per-scenario thread
  /// spawning never appears in campaign wall clock.  Results are
  /// byte-identical at any value.  Default 1: campaign parallelism
  /// already saturates the host at rep granularity — raising this
  /// oversubscribes unless `threads` is lowered to compensate.
  unsigned engine_threads = 1;
};

/// Executes one scenario synchronously.  Throws std::invalid_argument on
/// malformed scenarios (unknown daemon, bad topology).
[[nodiscard]] ScenarioResult run_scenario(
    const Scenario& scenario, EngineKind engine = EngineKind::kIncremental);

/// Expands the grid and executes every item on `threads` workers.
[[nodiscard]] CampaignResult run_campaign(const CampaignGrid& grid,
                                          const RunnerOptions& opt = {});

/// Executes an already-expanded item list (ports of the benches expand
/// once and reuse the items for labeling).
[[nodiscard]] CampaignResult run_scenarios(const std::vector<Scenario>& items,
                                           const RunnerOptions& opt = {});

}  // namespace specstab::campaign

#endif  // SPECSTAB_CAMPAIGN_RUNNER_HPP
