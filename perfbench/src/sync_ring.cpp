// sync-ssme-ring: the paper's synchronous regime as a user runs it.
//
// Untraced: `specstab run ring N --protocol ssme --daemon synchronous
// --engine parallel --threads 4 --seed S` through cli::run_cli, argv to
// rendered report, repeated for the run's seconds.  Traced: the same
// session replayed through the public functions run_cli calls (graph
// build, diameter, protocol + init construction, engine, rendering),
// each wrapped in a span, with a StepObserver timing every step.
#include <unistd.h>

#include <cstdio>
#include <sstream>

#include "cli/cli.hpp"
#include "graph/properties.hpp"
#include "perfbench.hpp"
#include "pins.hpp"

namespace perfbench {

namespace {

using specstab::Graph;
using specstab::VertexId;

[[nodiscard]] VertexId ring_size(Scale scale) {
  return scale == Scale::kFull ? 10000 : 1000;
}

/// Session seed of the i-th session of a run: the workload seed picks
/// where the run starts in the pinned seed pool.
[[nodiscard]] std::uint64_t session_seed(std::uint64_t seed, std::size_t i) {
  return 1 + (seed + i) % kPinnedSeeds;
}

[[nodiscard]] std::vector<std::string> session_argv(VertexId n,
                                                    std::uint64_t sseed) {
  return {"run",      "ring",        std::to_string(n), "--protocol",
          "ssme",     "--daemon",    "synchronous",     "--engine",
          "parallel", "--threads",   "4",               "--seed",
          std::to_string(sseed)};
}

/// Reads the counters back out of run_cli's rendered report.
[[nodiscard]] SessionOutput parse_report(const std::string& report) {
  SessionOutput out;
  std::istringstream in(report);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("steps run:", 0) == 0) {
      std::sscanf(line.c_str(), "steps run: %ld (moves %ld, rounds %ld)",
                  &out.steps, &out.moves, &out.rounds);
    } else if (line.rfind("converged:  yes, at step ", 0) == 0) {
      out.converged = true;
      std::sscanf(line.c_str(), "converged:  yes, at step %ld",
                  &out.convergence);
    } else if (line.rfind("closure:", 0) == 0) {
      std::sscanf(line.c_str(), "closure: %ld", &out.closure_violations);
    }
  }
  return out;
}

/// The session of run_cli, replayed through the public functions it
/// calls, each inside a span.  With a disabled tracer and no step stats
/// this is the plain typed path.
SessionOutput replay_session(Tracer& tracer, VertexId n, std::uint64_t sseed,
                             StepStats* step_stats) {
  const auto root = tracer.span("cli.session", 0);
  Graph g;
  {
    const auto span = tracer.span("graph.build");
    const std::vector<std::string> spec = {"ring", std::to_string(n)};
    std::size_t pos = 0;
    g = specstab::cli::graph_from_spec(spec, pos);
  }
  VertexId diam = 0;
  {
    const auto span = tracer.span("graph.diameter");
    diam = specstab::diameter(g);
  }
  SsmeSessionInput in;
  in.seed = sseed;
  in.parallel_engine = true;
  in.threads = 4;
  return run_typed_ssme(tracer, g, diam, in, step_stats);
}

/// Compares a session's output against the pin of its seed; every
/// mismatch is one failed output check.
void check_session(Outcome& outcome, const SessionOutput& got, Scale scale,
                   std::uint64_t sseed, const std::string& path) {
  const SyncPin& pin =
      kSyncPins[scale == Scale::kFull ? 0 : 1][(sseed - 1) % kPinnedSeeds];
  std::ostringstream why;
  if (!got.converged) why << " not converged;";
  if (got.closure_violations != 0) why << " closure violations;";
  if (got.steps != pin.steps || got.moves != pin.moves ||
      got.rounds != pin.rounds || got.convergence != pin.convergence) {
    why << " counters " << got.steps << "/" << got.moves << "/" << got.rounds
        << "/" << got.convergence << " != pinned " << pin.steps << "/"
        << pin.moves << "/" << pin.rounds << "/" << pin.convergence << ";";
  }
  if (got.digest != 0 && got.digest != pin.digest) {
    why << " final digest " << got.digest << " != pinned " << pin.digest
        << ";";
  }
  if (!why.str().empty()) {
    outcome.fail(path + " session seed " + std::to_string(sseed) + ":" +
                 why.str());
  }
}

/// Runs one session through run_cli and returns its output (counters
/// only: the report prints no digest).
SessionOutput cli_session(VertexId n, std::uint64_t sseed, int& exit_code) {
  const specstab::cli::CliResult result =
      specstab::cli::run_cli(session_argv(n, sseed));
  exit_code = result.exit_code;
  return parse_report(result.output);
}

constexpr int kOverheadPairs = 3;

double setup_once(VertexId n) {
  const Clock::time_point start = Clock::now();
  const std::vector<std::string> spec = {"ring", std::to_string(n)};
  std::size_t pos = 0;
  const Graph g = specstab::cli::graph_from_spec(spec, pos);
  const VertexId diam = specstab::diameter(g);
  if (diam != n / 2) return -1.0;
  return seconds_since(start);
}

}  // namespace

Outcome run_sync_ring(const Options& opt) {
  Outcome outcome;
  const VertexId n = ring_size(opt.scale);
  outcome.config["ring_size"] = std::to_string(n);
  outcome.config["engine_threads"] = "4";
  outcome.config["client_connections"] = "0";

  if (!opt.trace) {
    // Set-up is sampled before every second session, so its samples
    // spread over the run as the sessions do (the host's speed drifts
    // within seconds).  run_cli pays the same set-up again inside every
    // session.
    std::vector<double> setups;
    std::vector<double> sessions;
    const Clock::time_point loop_start = Clock::now();
    for (std::size_t i = 0; i == 0 || seconds_since(loop_start) < opt.seconds;
         ++i) {
      if (i % 2 == 0) {
        const double s = setup_once(n);
        if (s < 0) {
          outcome.fail("setup: diameter of ring " + std::to_string(n) +
                       " is not n/2");
        } else {
          setups.push_back(s);
        }
      }
      const std::uint64_t sseed = session_seed(opt.seed, i);
      const Clock::time_point start = Clock::now();
      int exit_code = 0;
      const SessionOutput got = cli_session(n, sseed, exit_code);
      sessions.push_back(seconds_since(start));
      ++outcome.attempted;
      if (exit_code != 0) {
        outcome.fail("run_cli exit code " + std::to_string(exit_code));
      } else {
        check_session(outcome, got, opt.scale, sseed, "run_cli");
      }
    }
    // run_cli prints no digest: check the final configuration of the
    // first session through the typed path, outside the timed loop.
    Tracer off(false);
    ++outcome.attempted;
    check_session(outcome,
                  replay_session(off, n, session_seed(opt.seed, 0), nullptr),
                  opt.scale, session_seed(opt.seed, 0), "typed replay");

    const Summary setup = summarize(setups);
    const Summary session = summarize(sessions);
    outcome.add("setup_s", setup.median, "s",
                "graph_from_spec + diameter, " + setup.describe());
    outcome.add("session_s", session.median, "s",
                "run_cli argv to report, " + session.describe());
    outcome.add("sessions_per_s", 1.0 / session.median, "1/s",
                "run_cli sessions per second of session wall (1 / median)");
    add_process_memory(outcome, ::getpid(), "benchmark process");
    return outcome;
  }

  // Traced run: one session through run_cli, then the same session
  // replayed through the typed path without and with spans, in
  // interleaved pairs; outputs must agree.  Both replays do the same
  // work, so the difference of their median walls is the tracing
  // overhead.  The last traced replay supplies the layer metrics.
  const std::uint64_t sseed = session_seed(opt.seed, 0);
  int exit_code = 0;
  const SessionOutput cli = cli_session(n, sseed, exit_code);
  ++outcome.attempted;
  if (exit_code != 0) outcome.fail("run_cli exit code " + std::to_string(exit_code));
  check_session(outcome, cli, opt.scale, sseed, "run_cli");

  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  Tracer tracer(true);
  StepStats steps;
  SessionOutput traced;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    Tracer off(false);
    Clock::time_point start = Clock::now();
    const SessionOutput plain = replay_session(off, n, sseed, nullptr);
    untraced_walls.push_back(seconds_since(start));
    check_session(outcome, plain, opt.scale, sseed, "typed replay");

    tracer = Tracer(true);
    steps = StepStats();
    start = Clock::now();
    traced = replay_session(tracer, n, sseed, &steps);
    traced_walls.push_back(seconds_since(start));
    check_session(outcome, traced, opt.scale, sseed, "traced replay");
    outcome.attempted += 2;
    if (traced.steps != cli.steps || traced.moves != cli.moves ||
        traced.rounds != cli.rounds || traced.digest != plain.digest) {
      outcome.fail("traced replay differs from the untraced run");
    }
  }

  const Summary gaps = summarize(steps.gaps_us);
  const double engine_s = tracer.total_s("sim.engine");
  outcome.add("graph.build_s", tracer.total_s("graph.build"), "s");
  outcome.add("graph.diameter_s", tracer.total_s("graph.diameter"), "s");
  outcome.add("graph.diameter_calls",
              static_cast<double>(tracer.count("graph.diameter")), "count");
  outcome.add("sim.make_s", tracer.total_s("sim.make"), "s");
  outcome.add("sim.engine_s", engine_s, "s");
  outcome.add("sim.moves_per_s", static_cast<double>(traced.moves) / engine_s,
              "1/s");
  outcome.add("sim.step_us.p50", gaps.median, "us", gaps.describe());
  outcome.add("sim.step_us.p99", gaps.at_or_tail(99.0), "us", gaps.describe());
  outcome.add("sim.active_per_step",
              traced.steps > 0 ? static_cast<double>(steps.activated) /
                                     static_cast<double>(traced.steps)
                               : 0.0,
              "count");
  outcome.add("sim.render_s", tracer.total_s("sim.render"), "s");
  outcome.add("sim.steps", static_cast<double>(traced.steps), "count");
  outcome.add("sim.moves", static_cast<double>(traced.moves), "count");
  outcome.add("sim.rounds", static_cast<double>(traced.rounds), "count");
  const Summary untraced_wall = summarize(untraced_walls);
  const Summary traced_wall = summarize(traced_walls);
  outcome.add("trace.overhead_s", traced_wall.median - untraced_wall.median,
              "s",
              "median traced replay wall - median untraced replay wall, "
              "same session, " +
                  traced_wall.describe());
  if (!tracer.write_jsonl(opt.out_dir + "/spans-sync-ssme-ring-seed" +
                          std::to_string(opt.seed) + ".jsonl")) {
    outcome.fail("could not write the span file");
  }
  return outcome;
}

void print_sync_pins(Scale scale) {
  const VertexId n = ring_size(scale);
  Tracer off(false);
  for (std::uint64_t s = 1; s <= kPinnedSeeds; ++s) {
    const SessionOutput o = replay_session(off, n, s, nullptr);
    std::printf("    {%ld, %ld, %ld, %ld, %luull},\n", o.steps, o.moves,
                o.rounds, o.convergence, o.digest);
  }
}

}  // namespace perfbench
