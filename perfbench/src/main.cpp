// The repository benchmark's command-line entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--specstab PATH]
//   perfbench --print-pins
//
// Prints a human-readable report (host stamp, workload configuration,
// every metric by name and unit with its sample count, failed checks),
// then, as the last line, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1).  perfbench/run.py builds this binary and calls it.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>

#include "perfbench.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

struct MetricName {
  const char* name;
  const char* unit;
};

/// The fixed metric sets of BENCHMARK.json, in its order.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},         {"session_s", "s"},
    {"sessions_per_s", "1/s"}, {"peak_rss_mb", "MiB"},
    {"server_vmsize_mb", "MiB"},
};

constexpr MetricName kPerLayer[] = {
    {"graph.build_s", "s"},
    {"graph.diameter_s", "s"},
    {"graph.diameter_calls", "count"},
    {"sim.make_s", "s"},
    {"sim.engine_s", "s"},
    {"sim.moves_per_s", "1/s"},
    {"sim.step_us.p50", "us"},
    {"sim.step_us.p99", "us"},
    {"sim.active_per_step", "count"},
    {"sim.render_s", "s"},
    {"sim.steps", "count"},
    {"sim.moves", "count"},
    {"sim.rounds", "count"},
    {"campaign.expand_s", "s"},
    {"campaign.topology_s", "s"},
    {"campaign.scenario_ms.p50", "ms"},
    {"campaign.scenario_ms.p99", "ms"},
    {"campaign.busy_s", "s"},
    {"campaign.pool_efficiency", "ratio"},
    {"serve.wire.decode_us", "us"},
    {"serve.cache.lookup_us", "us"},
    {"serve.cache.insert_us", "us"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.cache.evictions", "count"},
    {"serve.session_ms.p50", "ms"},
    {"serve.session_ms.p99", "ms"},
    {"serve.render_us", "us"},
    {"serve.trace.render_us_per_line", "us"},
    {"serve.trace.lines", "count"},
    {"serve.overhead_us.p50", "us"},
    {"serve.busy_rejections", "count"},
    {"serve.protocol_errors", "count"},
    {"serve.connections_accepted", "count"},
    {"serve.threads", "count"},
    {"trace.overhead_s", "s"},
};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload sync-ssme-ring|"
               "async-thm3-campaign|serve-mixed --seed N --seconds S "
               "--trace 0|1 [--specstab PATH]\n"
               "       perfbench --print-pins\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& flag = args[i];
      if (flag == "--print-pins") {
        std::printf("sync full:\n");
        perfbench::print_sync_pins(perfbench::Scale::kFull);
        std::printf("sync small:\n");
        perfbench::print_sync_pins(perfbench::Scale::kSmall);
        std::printf("campaign:\n");
        perfbench::print_campaign_pins(perfbench::Scale::kFull);
        perfbench::print_campaign_pins(perfbench::Scale::kSmall);
        return 0;
      }
      if (i + 1 >= args.size()) return usage(("missing value for " + flag).c_str());
      const std::string& value = args[++i];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--specstab") {
        opt.specstab_path = value;
      } else {
        return usage(("unknown option " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  ::mkdir(opt.out_dir.c_str(), 0755);

  Outcome outcome;
  try {
    if (opt.workload == "sync-ssme-ring") {
      outcome = perfbench::run_sync_ring(opt);
    } else if (opt.workload == "async-thm3-campaign") {
      outcome = perfbench::run_campaign_thm3(opt);
    } else if (opt.workload == "serve-mixed") {
      if (opt.specstab_path.empty()) return usage("serve-mixed needs --specstab");
      outcome = perfbench::run_serve_mixed(opt);
    } else {
      return usage("unknown or missing --workload");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }

  // The fixed metric set for this mode; layers a workload does not
  // reach report 0.
  std::vector<Metric> metrics;
  std::set<std::string> seen;
  const auto take = [&](const MetricName& m) {
    for (const Metric& got : outcome.metrics) {
      if (got.name == m.name) {
        metrics.push_back(got);
        seen.insert(got.name);
        return;
      }
    }
    if (!opt.trace) outcome.fail(std::string("metric ") + m.name + " missing");
    metrics.push_back({m.name, 0.0, m.unit, "layer not reached"});
  };
  if (opt.trace) {
    for (const MetricName& m : kPerLayer) take(m);
  } else {
    for (const MetricName& m : kEndToEnd) take(m);
  }
  for (const Metric& got : outcome.metrics) {
    if (!seen.contains(got.name)) outcome.fail("unlisted metric " + got.name);
  }

  const auto stamp = perfbench::host_stamp();
  std::cout << "# perfbench " << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace << '\n';
  std::cout << "# host";
  for (const auto& [k, v] : stamp) std::cout << ' ' << k << "=\"" << v << '"';
  std::cout << "\n# workload";
  for (const auto& [k, v] : outcome.config) std::cout << ' ' << k << '=' << v;
  std::cout << '\n';
  for (const Metric& m : metrics) {
    std::cout << "# metric " << m.name << " = " << number(m.value) << ' '
              << m.unit << (m.detail.empty() ? "" : "  (" + m.detail + ")")
              << '\n';
  }
  for (const Metric& m : outcome.extra) {
    std::cout << "# extra  " << m.name << " = " << number(m.value) << ' '
              << m.unit << (m.detail.empty() ? "" : "  (" + m.detail + ")")
              << '\n';
  }
  const double failed_share =
      outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                  static_cast<double>(outcome.attempted)
                            : 1.0;
  std::cout << "# extra  failed_share = " << number(failed_share)
            << " ratio  (" << outcome.failed << " failed / "
            << outcome.attempted << " attempted)\n";
  for (const std::string& f : outcome.failures) {
    std::cout << "# check FAILED: " << f << '\n';
  }

  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " +
                     std::to_string(std::max<std::int64_t>(1, outcome.attempted)) +
                     ", \"failed\": " + std::to_string(outcome.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}
