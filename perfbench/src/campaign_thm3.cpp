// async-thm3-campaign: the paper's asynchronous regime as a campaign.
//
// Untraced: run_campaign over the Theorem-3 preset grid (thm3_grid) with
// 60 repetitions per cell on 4 threads and the default engine, repeated
// for the run's seconds.  Traced: the same campaign with spans around
// grid construction, expansion, topology instantiation and the campaign
// call; then every scenario replayed through run_scenario on one thread,
// and every 8th through the typed session path with a StepObserver.
#include <unistd.h>

#include <cstdio>
#include <map>

#include "campaign/artifacts.hpp"
#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "campaign/stats.hpp"
#include "graph/properties.hpp"
#include "perfbench.hpp"
#include "pins.hpp"

namespace perfbench {

namespace {

namespace cmp = specstab::campaign;

constexpr unsigned kThreads = 4;
constexpr std::size_t kStepSampleEvery = 8;

[[nodiscard]] std::uint64_t campaign_seed(std::uint64_t seed) {
  return 1 + seed % kPinnedSeeds;
}

/// The workload's grid: the Theorem-3 preset with `reps` repetitions and
/// a base seed from the pinned pool.
[[nodiscard]] cmp::CampaignGrid make_grid(Scale scale, std::uint64_t cseed) {
  cmp::CampaignGrid grid = cmp::thm3_grid(false);
  grid.reps = scale == Scale::kFull ? 60 : 2;
  grid.base_seed = 0x5eed + cseed;
  return grid;
}

[[nodiscard]] cmp::RunnerOptions runner_options() {
  cmp::RunnerOptions opt;
  opt.threads = kThreads;
  return opt;
}

struct Topology {
  specstab::Graph graph;
  specstab::VertexId diam = 0;
};

/// Set-up as the campaign pays it: grid, expansion, and each distinct
/// topology built once with its diameter.  Spans only when traced.
std::map<std::string, Topology> set_up(Tracer& tracer, Scale scale,
                                       std::uint64_t cseed,
                                       std::vector<cmp::Scenario>& items) {
  cmp::CampaignGrid grid;
  {
    const auto span = tracer.span("campaign.grid");
    grid = make_grid(scale, cseed);
  }
  {
    const auto span = tracer.span("campaign.expand");
    items = cmp::expand_grid(grid);
  }
  std::map<std::string, Topology> topologies;
  const auto span = tracer.span("campaign.topology");
  for (const cmp::TopologySpec& spec : grid.topologies) {
    Topology topo;
    {
      const auto build = tracer.span("graph.build");
      topo.graph = cmp::make_topology(spec);
    }
    {
      const auto diameter = tracer.span("graph.diameter");
      topo.diam = specstab::diameter(topo.graph);
    }
    topologies.emplace(spec.label(), std::move(topo));
  }
  return topologies;
}

[[nodiscard]] std::uint64_t aggregate_digest(const cmp::CampaignResult& r) {
  return fnv1a(cmp::cells_to_csv(cmp::aggregate(r)));
}

/// Output checks of one campaign: every scenario converged within the
/// Theorem-3 step cap, and the per-cell aggregate equals the pin.
void check_campaign(Outcome& outcome, const cmp::CampaignResult& result,
                    Scale scale, std::uint64_t cseed) {
  for (const cmp::ScenarioResult& row : result.rows) {
    if (!row.converged || row.closure_violations != 0) {
      outcome.fail("scenario " + std::to_string(row.index) + " (" +
                   row.topology + ", " + row.daemon +
                   ") did not converge cleanly");
    }
  }
  const std::uint64_t digest = aggregate_digest(result);
  const std::uint64_t pin =
      kCampaignPins[scale == Scale::kFull ? 0 : 1][cseed - 1];
  if (digest != pin) {
    outcome.fail("per-cell aggregate digest " + std::to_string(digest) +
                 " != pinned " + std::to_string(pin));
  }
}

}  // namespace

Outcome run_campaign_thm3(const Options& opt) {
  Outcome outcome;
  const std::uint64_t cseed = campaign_seed(opt.seed);
  outcome.config["campaign_threads"] = std::to_string(kThreads);
  outcome.config["engine"] = "incremental (default)";
  outcome.config["reps"] = opt.scale == Scale::kFull ? "60" : "2";
  outcome.config["client_connections"] = "0";

  if (!opt.trace) {
    // Set-up is timed 100 times on a fresh heap, before any campaign
    // result has been allocated and freed.
    Tracer off(false);
    const cmp::CampaignGrid grid = make_grid(opt.scale, cseed);
    std::vector<double> setups;
    for (int r = 0; r < 100; ++r) {
      std::vector<cmp::Scenario> items;
      const Clock::time_point start = Clock::now();
      const auto topologies = set_up(off, opt.scale, cseed, items);
      setups.push_back(seconds_since(start));
      if (items.empty() || topologies.empty()) {
        outcome.fail("set-up produced an empty grid");
      }
    }
    std::vector<double> walls;
    std::size_t scenarios = 0;
    cmp::CampaignResult first;
    const Clock::time_point loop_start = Clock::now();
    while (walls.empty() || seconds_since(loop_start) < opt.seconds) {
      const Clock::time_point start = Clock::now();
      cmp::CampaignResult result = cmp::run_campaign(grid, runner_options());
      walls.push_back(seconds_since(start));
      scenarios = result.rows.size();
      outcome.attempted += static_cast<std::int64_t>(result.rows.size());
      check_campaign(outcome, result, opt.scale, cseed);
      if (first.rows.empty()) {
        first = std::move(result);
      } else if (!(result.rows == first.rows)) {
        outcome.fail("a repeated campaign produced different rows");
      }
    }
    const Summary setup = summarize(setups);
    const Summary wall = summarize(walls);
    const double per_s = static_cast<double>(scenarios) / wall.median;
    outcome.add("setup_s", setup.median, "s",
                "thm3_grid + expand_grid + topologies with diameter, " +
                    setup.describe());
    outcome.add("session_s", wall.median, "s",
                "one run_campaign call (" + std::to_string(scenarios) +
                    " scenarios), " +
                    wall.describe());
    outcome.add("sessions_per_s", per_s, "1/s",
                "scenarios per campaign / median campaign wall");
    outcome.add_extra("scenarios_per_s", per_s, "1/s",
                      std::to_string(scenarios) + " scenarios per campaign");
    add_process_memory(outcome, ::getpid(), "benchmark process");
    return outcome;
  }

  // Traced run.  First the untraced pass (set-up + campaign), then the
  // same pass with spans; their rows must agree.
  Tracer off(false);
  const Clock::time_point untraced_start = Clock::now();
  std::vector<cmp::Scenario> items;
  (void)set_up(off, opt.scale, cseed, items);
  const cmp::CampaignResult plain =
      cmp::run_campaign(make_grid(opt.scale, cseed), runner_options());
  const double untraced_s = seconds_since(untraced_start);
  outcome.attempted += static_cast<std::int64_t>(plain.rows.size());
  check_campaign(outcome, plain, opt.scale, cseed);

  Tracer tracer(true);
  const Clock::time_point traced_start = Clock::now();
  const std::map<std::string, Topology> topologies =
      set_up(tracer, opt.scale, cseed, items);
  cmp::CampaignResult traced;
  {
    const auto span = tracer.span("campaign.run");
    traced = cmp::run_campaign(make_grid(opt.scale, cseed), runner_options());
  }
  const double traced_s = seconds_since(traced_start);
  if (!(traced.rows == plain.rows)) {
    outcome.fail("traced campaign rows differ from the untraced run");
  }

  // Every scenario through run_scenario, one thread, in grid order.
  for (const cmp::Scenario& item : items) {
    cmp::ScenarioResult row;
    {
      const auto span =
          tracer.span("campaign.scenario", static_cast<std::int64_t>(item.index));
      row = cmp::run_scenario(item);
    }
    if (!(row == plain.rows[item.index])) {
      outcome.fail("replayed scenario " + std::to_string(item.index) +
                   " differs from the campaign row");
    }
  }

  // Every 8th scenario through the typed session path, timing steps.
  StepStats steps;
  std::int64_t sampled_moves = 0;
  for (std::size_t i = 0; i < items.size(); i += kStepSampleEvery) {
    const cmp::Scenario& item = items[i];
    const Topology& topo = topologies.at(item.topology.label());
    SsmeSessionInput in;
    in.daemon = item.daemon;
    in.init = item.init;
    in.seed = item.seed;
    in.render = false;
    const SessionOutput got =
        run_typed_ssme(tracer, topo.graph, topo.diam, in, &steps);
    const cmp::ScenarioResult& row = plain.rows[item.index];
    sampled_moves += got.moves;
    if (got.steps != row.steps || got.moves != row.moves ||
        got.rounds != row.rounds) {
      outcome.fail("typed session of scenario " + std::to_string(i) +
                   " differs from the campaign row");
    }
  }

  std::int64_t total_steps = 0;
  std::int64_t total_moves = 0;
  std::int64_t total_rounds = 0;
  for (const cmp::ScenarioResult& row : plain.rows) {
    total_steps += row.steps;
    total_moves += row.moves;
    total_rounds += row.rounds;
  }
  const Summary scenario = summarize(tracer.durations_s("campaign.scenario"));
  const Summary gaps = summarize(steps.gaps_us);
  const double campaign_wall = tracer.total_s("campaign.run");
  const double engine_s = tracer.total_s("sim.engine");
  outcome.add("graph.build_s", tracer.total_s("graph.build"), "s");
  outcome.add("graph.diameter_s", tracer.total_s("graph.diameter"), "s");
  outcome.add("graph.diameter_calls",
              static_cast<double>(tracer.count("graph.diameter")), "count");
  outcome.add("sim.make_s", tracer.total_s("sim.make"), "s",
              "every 8th scenario");
  outcome.add("sim.engine_s", engine_s, "s", "every 8th scenario");
  outcome.add("sim.moves_per_s",
              engine_s > 0 ? static_cast<double>(sampled_moves) / engine_s : 0,
              "1/s", "every 8th scenario");
  outcome.add("sim.step_us.p50", gaps.median, "us", gaps.describe());
  outcome.add("sim.step_us.p99", gaps.at_or_tail(99.0), "us", gaps.describe());
  outcome.add("sim.active_per_step",
              gaps.n > 0 ? static_cast<double>(steps.activated) /
                               static_cast<double>(gaps.n)
                         : 0.0,
              "count");
  outcome.add("sim.steps", static_cast<double>(total_steps), "count");
  outcome.add("sim.moves", static_cast<double>(total_moves), "count");
  outcome.add("sim.rounds", static_cast<double>(total_rounds), "count");
  outcome.add("campaign.expand_s", tracer.total_s("campaign.expand"), "s");
  outcome.add("campaign.topology_s", tracer.total_s("campaign.topology"), "s");
  outcome.add("campaign.scenario_ms.p50", scenario.median * 1e3, "ms",
              scenario.describe(1e3));
  outcome.add("campaign.scenario_ms.p99", scenario.at_or_tail(99.0) * 1e3,
              "ms", scenario.describe(1e3));
  outcome.add("campaign.busy_s", scenario.sum, "s");
  outcome.add("campaign.pool_efficiency",
              scenario.sum / (kThreads * campaign_wall), "ratio",
              "busy_s / (threads x campaign wall)");
  outcome.add("trace.overhead_s", traced_s - untraced_s, "s",
              "traced set-up + campaign wall - untraced wall");
  if (!tracer.write_jsonl(opt.out_dir + "/spans-async-thm3-campaign-seed" +
                          std::to_string(opt.seed) + ".jsonl")) {
    outcome.fail("could not write the span file");
  }
  return outcome;
}

std::vector<std::string> campaign_item_labels(Scale scale, std::uint64_t seed) {
  std::vector<std::string> out;
  for (const cmp::Scenario& s :
       cmp::expand_grid(make_grid(scale, campaign_seed(seed)))) {
    out.push_back(s.protocol + "|" + s.topology.label() + "|" + s.daemon +
                  "|" + s.init + "|" + std::to_string(s.seed));
  }
  return out;
}

void print_campaign_pins(Scale scale) {
  std::printf("  {");
  for (std::uint64_t s = 1; s <= kPinnedSeeds; ++s) {
    const cmp::CampaignResult r =
        cmp::run_campaign(make_grid(scale, s), runner_options());
    std::printf("%luull%s", aggregate_digest(r),
                s == kPinnedSeeds ? "},\n" : ", ");
    std::fflush(stdout);
  }
}

}  // namespace perfbench
