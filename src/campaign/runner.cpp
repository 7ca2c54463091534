#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>

#include "graph/properties.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/protocol_registry.hpp"

namespace specstab::campaign {

namespace {

/// One instantiated topology, shared read-only by every scenario of the
/// same cell column.  run_scenarios() instantiates each distinct topology
/// exactly once instead of once per scenario, so graph construction is
/// paid per column.  The diameter is a closed form for generated
/// families and a few BFS sweeps (iFUB) for random graphs.
struct TopologyInstance {
  Graph graph;
  VertexId diam = 0;

  explicit TopologyInstance(const TopologySpec& spec)
      : graph(make_topology(spec)), diam(diameter(graph)) {}
};

/// A-priori cost estimate of one work item: the step cap the run will be
/// executed with — the registry entry's default resolved on the
/// instantiated topology, exactly what the erased run function applies,
/// so the heavy-first schedule can never drift from what executes.
std::int64_t estimated_cost(const Scenario& s, const TopologyInstance& topo,
                            StepIndex max_steps_override) {
  const StepIndex cap = s.max_steps > 0 ? s.max_steps : max_steps_override;
  if (cap > 0) return static_cast<std::int64_t>(cap);
  const ProtocolEntry& entry = ProtocolRegistry::instance().at(s.protocol);
  return static_cast<std::int64_t>(
      entry.default_step_cap(topo.graph, topo.diam));
}

/// Executes one scenario through the registry's type-erased session API:
/// the only protocol dispatch in the whole runner.  Every registered
/// protocol is thereby campaign-sweepable with zero per-protocol code
/// here.
ScenarioResult run_scenario_on(const Scenario& scenario,
                               const TopologyInstance& topo,
                               EngineKind engine,
                               unsigned engine_threads = 1,
                               ShardPool* pool = nullptr) {
  ScenarioResult out;
  out.index = scenario.index;
  out.protocol = scenario.protocol;
  out.topology = scenario.topology.label();
  out.daemon = scenario.daemon;
  out.init = scenario.init;
  out.perturb = scenario.perturb;
  out.rep = scenario.rep;
  out.seed = scenario.seed;
  out.n = topo.graph.n();
  out.diam = topo.diam;

  const ProtocolEntry& entry =
      ProtocolRegistry::instance().at(scenario.protocol);
  SessionSpec spec;
  spec.daemon = scenario.daemon;
  spec.init = scenario.init;
  spec.seed = scenario.seed;
  spec.max_steps = scenario.max_steps;
  spec.engine = engine;
  spec.threads = std::max(1u, engine_threads);
  spec.pool = pool;
  spec.perturb = scenario.perturb;
  // Only the numeric meters survive into ScenarioResult; skip the
  // per-vertex state rendering and annotation sweeps.
  spec.meters_only = true;
  const SessionResult res = entry.run_on(topo.graph, topo.diam, spec);

  out.steps = res.steps;
  out.moves = res.moves;
  out.rounds = res.rounds;
  out.converged = res.converged;
  out.hit_step_cap = res.hit_step_cap;
  out.convergence_steps = res.convergence_steps;
  out.moves_to_convergence = res.moves_to_convergence;
  out.rounds_to_convergence = res.rounds_to_convergence;
  out.closure_violations = res.closure_violations;
  out.perturb_epochs = res.perturb_epochs;
  out.perturb_unrecovered = res.perturb_unrecovered;
  out.recovery_steps = res.recovery_steps;
  out.service_stalls = res.service_stalls;
  return out;
}

}  // namespace

ScenarioResult run_scenario(const Scenario& scenario, EngineKind engine) {
  return run_scenario_on(scenario, TopologyInstance(scenario.topology),
                         engine);
}

CampaignResult run_scenarios(const std::vector<Scenario>& items,
                             const RunnerOptions& opt) {
  unsigned threads = opt.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(items.size(), 1)));

  CampaignResult result;
  result.threads_used = threads;
  result.rows.resize(items.size());

  // Instantiate each distinct topology exactly once, before the pool
  // spins up; workers share the instances read-only (a Graph is
  // immutable, so concurrent reads need no synchronization).
  std::unordered_map<std::string, TopologyInstance> topologies;
  for (const auto& item : items) {
    topologies.try_emplace(item.topology.label(), item.topology);
  }

  // Deterministic heavy-first schedule permutation the atomic cursor
  // walks: reps of the most expensive cells lead the queue, so they
  // overlap with the long tail of cheap items instead of straggling.
  // The permutation only affects wall clock: results land in slot
  // rows[item.index] whatever the order.
  std::vector<std::int64_t> cost(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    cost[i] = estimated_cost(items[i], topologies.at(items[i].topology.label()),
                             opt.max_steps_override);
  }
  std::vector<std::size_t> schedule(items.size());
  std::iota(schedule.begin(), schedule.end(), 0);
  std::stable_sort(schedule.begin(), schedule.end(),
                   [&cost](std::size_t a, std::size_t b) {
                     return cost[a] > cost[b];
                   });

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const unsigned engine_threads = std::max(1u, opt.engine_threads);
  const auto worker = [&] {
    // One persistent engine pool per campaign worker, reused across all
    // of its scenarios — per-scenario runs never pay thread spawning.
    // Pools are worker-local, so two scenarios never share one
    // concurrently.  The reference engine ignores the pool.
    ShardPool engine_pool(
        opt.engine == EngineKind::kReference ? 0 : engine_threads - 1);
    for (;;) {
      const std::size_t next = cursor.fetch_add(1, std::memory_order_relaxed);
      if (next >= items.size() || failed.load(std::memory_order_relaxed)) {
        return;
      }
      const std::size_t i = schedule[next];
      try {
        Scenario item = items[i];
        if (item.max_steps == 0) item.max_steps = opt.max_steps_override;
        result.rows[i] = run_scenario_on(
            item, topologies.at(item.topology.label()), opt.engine,
            engine_threads, &engine_pool);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  if (first_error) std::rethrow_exception(first_error);
  return result;
}

CampaignResult run_campaign(const CampaignGrid& grid,
                            const RunnerOptions& opt) {
  return run_scenarios(expand_grid(grid), opt);
}

}  // namespace specstab::campaign
