// Unit tests for the bench-regression gate (tools/bench_regression_lib.hpp):
// strict snapshot parsing, tolerance arithmetic, the stale-snapshot
// FAILs — a baseline micro row missing from the fresh run, and a campaign
// scenario-count change — that must never degrade into silent skips, and
// the tool's strict option values.  The committed BENCH_engine.json and
// BENCH_serve.json are read from the source tree (SPECSTAB_SOURCE_DIR)
// and gated against themselves.
#include "../tools/bench_regression_lib.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace specstab::benchgate {
namespace {

std::string bench_json(std::size_t scenarios, double campaign_speedup,
                       const std::string& micro_rows) {
  return "{\"mode\":\"full\",\n\"campaign\":{\"preset\":\"thm3\","
         "\"scenarios\":" +
         std::to_string(scenarios) +
         ",\"speedup\":" + std::to_string(campaign_speedup) +
         "},\n\"micro\":[\n" + micro_rows + "\n]}\n";
}

std::string micro_row(const std::string& name, long long steps,
                      double reference_ms, double speedup) {
  return "{\"name\":\"" + name + "\",\"steps\":" + std::to_string(steps) +
         ",\"reference_ms\":" + std::to_string(reference_ms) +
         ",\"speedup\":" + std::to_string(speedup) + "}";
}

bool has_line_with(const GateOutcome& outcome, const std::string& needle) {
  return std::any_of(outcome.lines.begin(), outcome.lines.end(),
                     [&needle](const std::string& line) {
                       return line.find(needle) != std::string::npos;
                     });
}

TEST(BenchGateParseTest, ParsesModeCampaignAndMicroRows) {
  const auto file = parse_bench_json(
      bench_json(120, 5.5,
                 micro_row("ssme/ring-64", 4000, 12.5, 8.0) + ",\n" +
                     micro_row("unison/torus-16x16", 9000, 30.0, 6.0)),
      "test");
  EXPECT_EQ(file.mode, "full");
  EXPECT_EQ(file.campaign_scenarios, 120u);
  EXPECT_DOUBLE_EQ(file.campaign_speedup, 5.5);
  ASSERT_EQ(file.micro.size(), 2u);
  EXPECT_EQ(file.micro[0].name, "ssme/ring-64");
  EXPECT_EQ(file.micro[0].steps, 4000);
  EXPECT_DOUBLE_EQ(file.micro[1].speedup, 6.0);
}

TEST(BenchGateParseTest, HostStampWithLatticeTierParses) {
  // bench_engine stamps its host, the lattice kernel's tier included;
  // the gate reads past the stamp to the rows.
  const std::string host =
      "\"host\": {\"nproc\": 4, \"cpu\": \"Intel(R) Xeon(R) Processor\", "
      "\"compiler\": \"g++ 12.2.0\", \"build_type\": \"Release\", "
      "\"lattice_lanes\": 8},\n";
  const std::string row =
      micro_row("ssme/gamma1/ring/synchronous", 4000, 11.37, 8.78);
  std::string text = bench_json(900, 5.77, row);
  text.insert(text.find("\"campaign\""), host);
  const auto file = parse_bench_json(text, "stamped");
  EXPECT_EQ(file.mode, "full");
  EXPECT_EQ(file.campaign_scenarios, 900u);
  EXPECT_DOUBLE_EQ(file.campaign_speedup, 5.77);
  ASSERT_EQ(file.micro.size(), 1u);
  EXPECT_EQ(file.micro[0].name, "ssme/gamma1/ring/synchronous");
  EXPECT_DOUBLE_EQ(file.micro[0].speedup, 8.78);
}

TEST(BenchGateParseTest, MalformedSnapshotsThrow) {
  EXPECT_THROW((void)parse_bench_json("{}", "t"), std::invalid_argument);
  EXPECT_THROW(
      (void)parse_bench_json("{\"mode\":\"full\",\"micro\":[]}", "t"),
      std::invalid_argument);
  // Empty micro array: the gate would vacuously pass, so parsing fails.
  EXPECT_THROW((void)parse_bench_json(bench_json(1, 1.0, ""), "t"),
               std::invalid_argument);
  // Corrupt number.
  std::string bad = bench_json(1, 1.0, micro_row("a", 1000, 1.0, 2.0));
  const auto at = bad.find("\"speedup\":2.0");
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, 13, "\"speedup\":oops");
  EXPECT_THROW((void)parse_bench_json(bad, "t"), std::invalid_argument);
  // A row missing its comma is not JSON, whatever its keys say.
  std::string no_comma = bench_json(1, 1.0, micro_row("a", 1000, 1.0, 2.0));
  const auto comma = no_comma.find(",\"reference_ms\"");
  ASSERT_NE(comma, std::string::npos);
  no_comma.erase(comma, 1);
  EXPECT_THROW((void)parse_bench_json(no_comma, "t"), std::invalid_argument);
}

TEST(BenchGateCompareTest, WithinToleranceIsOk) {
  const auto base = parse_bench_json(
      bench_json(10, 4.0, micro_row("a", 5000, 10.0, 8.0)), "base");
  const auto cur = parse_bench_json(
      bench_json(10, 3.0, micro_row("a", 5000, 10.0, 6.0)), "cur");
  const auto outcome = compare(base, cur, {});
  EXPECT_FALSE(outcome.regressed);  // 25% drops, 30% tolerance
}

TEST(BenchGateCompareTest, BeyondToleranceFails) {
  const auto base = parse_bench_json(
      bench_json(10, 4.0, micro_row("a", 5000, 10.0, 8.0)), "base");
  const auto cur = parse_bench_json(
      bench_json(10, 4.0, micro_row("a", 5000, 10.0, 5.0)), "cur");
  const auto outcome = compare(base, cur, {});
  EXPECT_TRUE(outcome.regressed);
  EXPECT_TRUE(has_line_with(outcome, "FAIL a"));
}

TEST(BenchGateCompareTest, MissingBaselineRowFails) {
  const auto base = parse_bench_json(
      bench_json(10, 4.0,
                 micro_row("kept", 5000, 10.0, 8.0) + ",\n" +
                     micro_row("dropped", 5000, 10.0, 8.0)),
      "base");
  const auto cur = parse_bench_json(
      bench_json(10, 4.0, micro_row("kept", 5000, 10.0, 8.0)), "cur");
  const auto outcome = compare(base, cur, {});
  EXPECT_TRUE(outcome.regressed);
  EXPECT_TRUE(has_line_with(outcome, "FAIL dropped: row missing"));
}

TEST(BenchGateCompareTest, ScenarioCountChangeFailsInsteadOfSkipping) {
  const auto base = parse_bench_json(
      bench_json(10, 4.0, micro_row("a", 5000, 10.0, 8.0)), "base");
  const auto cur = parse_bench_json(
      bench_json(12, 4.0, micro_row("a", 5000, 10.0, 8.0)), "cur");
  const auto outcome = compare(base, cur, {});
  EXPECT_TRUE(outcome.regressed);
  EXPECT_TRUE(has_line_with(outcome, "FAIL campaign/thm3-preset"));
  EXPECT_TRUE(has_line_with(outcome, "scenario count changed (10 -> 12)"));
}

TEST(BenchGateCompareTest, NoiseDominatedRowsAreSkippedNotGated) {
  // Low steps and low reference time are each sufficient to skip; the
  // catastrophic "speedup" drop must not trip the gate.
  const auto base = parse_bench_json(
      bench_json(10, 4.0,
                 micro_row("tiny-steps", 100, 10.0, 8.0) + ",\n" +
                     micro_row("tiny-ms", 5000, 0.01, 8.0) + ",\n" +
                     micro_row("real", 5000, 10.0, 8.0)),
      "base");
  const auto cur = parse_bench_json(
      bench_json(10, 4.0,
                 micro_row("tiny-steps", 100, 10.0, 0.1) + ",\n" +
                     micro_row("tiny-ms", 5000, 0.01, 0.1) + ",\n" +
                     micro_row("real", 5000, 10.0, 7.9)),
      "cur");
  const auto outcome = compare(base, cur, {});
  EXPECT_FALSE(outcome.regressed);
  EXPECT_TRUE(has_line_with(outcome, "skip tiny-steps"));
  EXPECT_TRUE(has_line_with(outcome, "skip tiny-ms"));
  EXPECT_TRUE(has_line_with(outcome, "ok   real"));
}

TEST(BenchGateCompareTest, ModeMismatchThrows) {
  const auto base = parse_bench_json(
      bench_json(10, 4.0, micro_row("a", 5000, 10.0, 8.0)), "base");
  auto smoke_text = bench_json(10, 4.0, micro_row("a", 5000, 10.0, 8.0));
  const std::string full = "\"mode\":\"full\"";
  const auto at = smoke_text.find(full);
  ASSERT_NE(at, std::string::npos);
  smoke_text.replace(at, full.size(), "\"mode\":\"smoke\"");
  const auto cur = parse_bench_json(smoke_text, "cur");
  EXPECT_THROW((void)compare(base, cur, {}), std::invalid_argument);
}

TEST(BenchGateParseTest, ZeroClaimingToBeAMeasurementThrows) {
  // A speedup of exactly 0.00 is the old "no data" spelling; a ratio of
  // two timings is never 0, so it must be rejected, not compared against
  // real ratios.
  EXPECT_THROW(
      (void)parse_bench_json(
          bench_json(10, 4.0, micro_row("a", 5000, 10.0, 0.0)), "t"),
      std::invalid_argument);
}

// --- serve snapshots ----------------------------------------------------

std::string serve_json(std::size_t sessions_per_phase,
                       const std::string& rows) {
  return "{\"bench\": \"serve\",\n\"mode\": \"full\",\n\"connections\": 4,"
         "\n\"sessions_per_phase\": " +
         std::to_string(sessions_per_phase) + ",\n\"rows\": [\n" + rows +
         "\n]}\n";
}

std::string serve_row(const std::string& name, std::size_t sessions,
                      double warm_speedup) {
  return "{\"name\": \"" + name +
         "\", \"sessions\": " + std::to_string(sessions) +
         ", \"cold_sessions_per_sec\": 900.0, \"cold_p50_us\": 1000.0"
         ", \"cold_p95_us\": 2000.0, \"warm_sessions_per_sec\": 4000.0"
         ", \"warm_p50_us\": 150.0, \"warm_p95_us\": 400.0"
         ", \"warm_speedup\": " +
         std::to_string(warm_speedup) + "}";
}

TEST(ServeGateParseTest, ParsesRowsAndRejectsForeignSnapshots) {
  const auto file = parse_serve_bench_json(
      serve_json(400, serve_row("serve/mixed/t1", 400, 4.4) + ",\n" +
                          serve_row("serve/mixed/t8", 400, 3.1)),
      "test");
  EXPECT_EQ(file.mode, "full");
  EXPECT_EQ(file.sessions_per_phase, 400u);
  ASSERT_EQ(file.rows.size(), 2u);
  EXPECT_EQ(file.rows[0].name, "serve/mixed/t1");
  EXPECT_DOUBLE_EQ(file.rows[1].warm_speedup, 3.1);
  // An engine snapshot fed to the serve parser fails loudly.
  EXPECT_THROW((void)parse_serve_bench_json(
                   bench_json(10, 4.0, micro_row("a", 5000, 10.0, 8.0)), "t"),
               std::invalid_argument);
  // Empty rows would make the gate vacuous.
  EXPECT_THROW((void)parse_serve_bench_json(serve_json(400, ""), "t"),
               std::invalid_argument);
}

TEST(ServeGateParseTest, MalformedSnapshotsThrow) {
  // Each of these once passed a key-by-key text search; a snapshot must
  // be one strict JSON document.
  const std::string good =
      serve_json(400, serve_row("serve/mixed/t1", 400, 4.4) + ",\n" +
                          serve_row("serve/mixed/t8", 400, 3.1));
  ASSERT_NO_THROW((void)parse_serve_bench_json(good, "t"));
  // A row missing its comma.
  std::string no_comma = good;
  const auto comma = no_comma.find(", \"warm_speedup\"");
  ASSERT_NE(comma, std::string::npos);
  no_comma.erase(comma, 1);
  EXPECT_THROW((void)parse_serve_bench_json(no_comma, "t"),
               std::invalid_argument);
  // Trailing bytes after the document.
  EXPECT_THROW((void)parse_serve_bench_json(good + "}", "t"),
               std::invalid_argument);
  // A count that is not an integer.
  std::string fractional = good;
  fractional.replace(fractional.find("400"), 3, "400.5");
  EXPECT_THROW((void)parse_serve_bench_json(fractional, "t"),
               std::invalid_argument);
  // Errors name the file.
  try {
    (void)parse_serve_bench_json(no_comma, "BENCH_serve.json");
    FAIL() << "parsed a snapshot missing a comma";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("BENCH_serve.json"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServeGateCompareTest, WarmSpeedupWithinToleranceIsOk) {
  const auto base = parse_serve_bench_json(
      serve_json(400, serve_row("serve/mixed/t1", 400, 4.0)), "base");
  const auto cur = parse_serve_bench_json(
      serve_json(400, serve_row("serve/mixed/t1", 400, 3.0)), "cur");
  EXPECT_FALSE(compare_serve(base, cur, {}).regressed);  // 25% < 30%
}

TEST(ServeGateCompareTest, WarmSpeedupBeyondToleranceFails) {
  const auto base = parse_serve_bench_json(
      serve_json(400, serve_row("serve/mixed/t1", 400, 4.0)), "base");
  const auto cur = parse_serve_bench_json(
      serve_json(400, serve_row("serve/mixed/t1", 400, 2.0)), "cur");
  const auto outcome = compare_serve(base, cur, {});
  EXPECT_TRUE(outcome.regressed);
  EXPECT_TRUE(has_line_with(outcome, "FAIL serve/mixed/t1"));
}

TEST(ServeGateCompareTest, MissingRowAndWorkloadChangeFail) {
  const auto base = parse_serve_bench_json(
      serve_json(400, serve_row("serve/mixed/t1", 400, 4.0) + ",\n" +
                          serve_row("serve/mixed/t8", 400, 3.0)),
      "base");
  const auto dropped = parse_serve_bench_json(
      serve_json(400, serve_row("serve/mixed/t1", 400, 4.0)), "cur");
  const auto outcome = compare_serve(base, dropped, {});
  EXPECT_TRUE(outcome.regressed);
  EXPECT_TRUE(has_line_with(outcome, "FAIL serve/mixed/t8: row missing"));

  const auto resized = parse_serve_bench_json(
      serve_json(100, serve_row("serve/mixed/t1", 100, 4.0) + ",\n" +
                          serve_row("serve/mixed/t8", 100, 3.0)),
      "cur2");
  const auto outcome2 = compare_serve(base, resized, {});
  EXPECT_TRUE(outcome2.regressed);
  EXPECT_TRUE(has_line_with(outcome2, "sessions_per_phase changed"));
}

TEST(ServeGateCompareTest, ModeMismatchThrows) {
  const auto base = parse_serve_bench_json(
      serve_json(400, serve_row("serve/mixed/t1", 400, 4.0)), "base");
  auto smoke_text = serve_json(48, serve_row("serve/mixed/t1", 48, 4.0));
  const std::string full = "\"mode\": \"full\"";
  const auto at = smoke_text.find(full);
  ASSERT_NE(at, std::string::npos);
  smoke_text.replace(at, full.size(), "\"mode\": \"smoke\"");
  const auto cur = parse_serve_bench_json(smoke_text, "cur");
  EXPECT_THROW((void)compare_serve(base, cur, {}), std::invalid_argument);
}

TEST(BenchGateCompareTest, TightTolerance) {
  GateOptions opt;
  opt.tolerance = 0.05;
  const auto base = parse_bench_json(
      bench_json(10, 4.0, micro_row("a", 5000, 10.0, 8.0)), "base");
  const auto cur = parse_bench_json(
      bench_json(10, 4.0, micro_row("a", 5000, 10.0, 7.5)), "cur");
  EXPECT_TRUE(compare(base, cur, opt).regressed);  // 6.25% > 5%
}

// --- the committed snapshots ---------------------------------------------

std::string read_snapshot(const std::string& name) {
  const std::string path = std::string(SPECSTAB_SOURCE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(CommittedSnapshotTest, BothSnapshotsParseAndPassAgainstThemselves) {
  // The repo's BENCH_engine.json and BENCH_serve.json go through the
  // gate's own parsers, so a snapshot that stops being strict JSON fails
  // here and not only in the bench-regression job's full run.
  const BenchFile engine =
      parse_bench_json(read_snapshot("BENCH_engine.json"), "BENCH_engine.json");
  EXPECT_FALSE(engine.micro.empty());
  const GateOutcome engine_outcome = compare(engine, engine, {});
  EXPECT_FALSE(engine_outcome.regressed);
  EXPECT_FALSE(has_line_with(engine_outcome, "FAIL"));

  const ServeBenchFile serve = parse_serve_bench_json(
      read_snapshot("BENCH_serve.json"), "BENCH_serve.json");
  EXPECT_FALSE(serve.rows.empty());
  const GateOutcome serve_outcome = compare_serve(serve, serve, {});
  EXPECT_FALSE(serve_outcome.regressed);
  EXPECT_FALSE(has_line_with(serve_outcome, "FAIL"));
}

TEST(CommittedSnapshotTest, DegradedEngineSnapshotRegresses) {
  // Every speedup of the committed snapshot at 0.01: the campaign and at
  // least one micro row are gated, not all skipped as noise.
  const BenchFile engine =
      parse_bench_json(read_snapshot("BENCH_engine.json"), "BENCH_engine.json");
  BenchFile degraded = engine;
  degraded.campaign_speedup = 0.01;
  for (Row& row : degraded.micro) row.speedup = 0.01;
  const GateOutcome outcome = compare(engine, degraded, {});
  EXPECT_TRUE(outcome.regressed);
  EXPECT_TRUE(has_line_with(outcome, "FAIL campaign/thm3-preset"));
  EXPECT_GE(std::count_if(outcome.lines.begin(), outcome.lines.end(),
                          [](const std::string& line) {
                            return line.rfind("FAIL ", 0) == 0;
                          }),
            2);
}

// --- command line -------------------------------------------------------

TEST(GateArgsTest, ParsesPathsAndOptions) {
  const GateArgs defaults = parse_gate_args({"base.json", "cur.json"});
  EXPECT_EQ(defaults.baseline, "base.json");
  EXPECT_EQ(defaults.current, "cur.json");
  EXPECT_FALSE(defaults.serve);
  EXPECT_EQ(defaults.options.tolerance, 0.30);
  EXPECT_EQ(defaults.options.min_steps, 500);
  EXPECT_EQ(defaults.options.min_ms, 0.25);

  const GateArgs args =
      parse_gate_args({"--serve", "base.json", "--tolerance", "0", "cur.json",
                       "--min-steps", "0", "--min-ms", "1.5"});
  EXPECT_EQ(args.baseline, "base.json");
  EXPECT_EQ(args.current, "cur.json");
  EXPECT_TRUE(args.serve);
  EXPECT_EQ(args.options.tolerance, 0.0);
  EXPECT_EQ(args.options.min_steps, 0);
  EXPECT_EQ(args.options.min_ms, 1.5);
  EXPECT_EQ(parse_gate_args({"a", "b", "--tolerance", "0.999"})
                .options.tolerance,
            0.999);
}

TEST(GateArgsTest, BadValuesThrowInsteadOfGating) {
  // Read loosely, "30" gated at 3000% and "abc" at 0%.
  const std::pair<const char*, const char*> cases[] = {
      {"--tolerance", "30"},  {"--tolerance", "abc"}, {"--tolerance", "1"},
      {"--tolerance", "-0.1"}, {"--tolerance", "nan"}, {"--tolerance", "0.3x"},
      {"--tolerance", ""},    {"--tolerance", " 0.3"}, {"--min-steps", "-1"},
      {"--min-steps", "5.5"}, {"--min-steps", "1e3"}, {"--min-ms", "-0.25"},
      {"--min-ms", "inf"},    {"--min-ms", "nan"},    {"--min-ms", "0.25ms"},
  };
  for (const auto& [flag, value] : cases) {
    EXPECT_THROW((void)parse_gate_args({"a.json", "b.json", flag, value}),
                 std::invalid_argument)
        << flag << " '" << value << "'";
  }
  try {
    (void)parse_gate_args({"a.json", "b.json", "--tolerance", "30"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--tolerance needs a fraction in [0, 1), got '30'");
  }
}

TEST(GateArgsTest, WrongShapeThrows) {
  const std::vector<std::string> cases[] = {
      {},
      {"a.json"},
      {"a.json", "b.json", "c.json"},
      {"a.json", "b.json", "--tolerance"},  // value missing
      {"a.json", "b.json", "--bogus"},
      {"a.json", "b.json", ""},
  };
  for (const auto& args : cases) {
    EXPECT_THROW((void)parse_gate_args(args), std::invalid_argument)
        << args.size() << " args";
  }
}

}  // namespace
}  // namespace specstab::benchgate
