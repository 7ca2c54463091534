// check_bench_regression — CI gate over BENCH_engine.json and (with
// --serve) BENCH_serve.json snapshots.
//
// Compares the per-row incremental-vs-reference speedups of a fresh
// bench_engine run against a committed baseline and fails (exit 2) when
// any comparable row regressed beyond the tolerance:
//
//   check_bench_regression BASELINE.json CURRENT.json
//       [--serve]         gate a BENCH_serve.json pair instead: the
//                         compared ratio is each row's warm_speedup
//                         (warm-cache over cold-cache sessions/sec)
//       [--tolerance T]   relative speedup drop allowed, in [0, 1)
//                         (default 0.30, i.e. 30%)
//       [--min-steps N]   skip micro rows whose baseline executed fewer
//                         steps (default 500: sub-hundred-step rows are
//                         setup-dominated and pure timer noise)
//       [--min-ms MS]     skip micro rows whose baseline reference time
//                         is below MS (default 0.25 ms, same reason)
//
// Each option value must be the whole token, finite and in range; a bad
// one, like a malformed snapshot, exits 1 instead of gating at a
// tolerance nobody meant.
//
// Only speedup *ratios* are compared, never absolute milliseconds — the
// ratio of two timings from the same binary on the same host is the one
// number that transfers across CI machines.  Both files must record the
// same mode (smoke vs full); the CI gate measures in full mode and
// compares against the committed full-mode BENCH_engine.json snapshot
// (smoke rows are sub-millisecond and too noisy to gate on).
//
// Rows present in the baseline but missing from the fresh run FAIL, and
// so does a campaign scenario-count change: both mean the committed
// snapshot is stale and must be regenerated, not that the gate should
// quietly narrow.  Argument parsing, snapshot parsing and comparison live
// in bench_regression_lib.hpp (unit-tested by
// tests/bench_regression_test.cpp).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_regression_lib.hpp"

namespace {

constexpr const char* kUsage =
    "usage: check_bench_regression BASELINE.json CURRENT.json"
    " [--serve] [--tolerance T] [--min-steps N] [--min-ms MS]\n";

[[noreturn]] void die(const std::string& message) {
  std::cerr << "check_bench_regression: " << message << "\n";
  std::exit(1);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  namespace gate = specstab::benchgate;
  gate::GateArgs args;
  try {
    args = gate::parse_gate_args(
        std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::invalid_argument& e) {
    std::cerr << "check_bench_regression: " << e.what() << "\n" << kUsage;
    return 1;
  }
  const gate::GateOptions& opt = args.options;

  try {
    gate::GateOutcome outcome;
    if (args.serve) {
      // BENCH_serve.json: gate the warm/cold throughput ratios.
      const gate::ServeBenchFile baseline =
          gate::parse_serve_bench_json(read_file(args.baseline), args.baseline);
      const gate::ServeBenchFile current =
          gate::parse_serve_bench_json(read_file(args.current), args.current);
      outcome = gate::compare_serve(baseline, current, opt);
    } else {
      const gate::BenchFile baseline =
          gate::parse_bench_json(read_file(args.baseline), args.baseline);
      const gate::BenchFile current =
          gate::parse_bench_json(read_file(args.current), args.current);
      outcome = gate::compare(baseline, current, opt);
    }
    for (const auto& line : outcome.lines) std::cout << line << "\n";
    if (outcome.regressed) {
      std::cerr << "\nbench regression beyond " << opt.tolerance * 100
                << "% tolerance — see FAIL rows above\n";
      return 2;
    }
    std::cout << "\nno bench regression (tolerance " << opt.tolerance * 100
              << "%)\n";
    return 0;
  } catch (const std::invalid_argument& e) {
    die(e.what());
  }
}
