// Unit tests for the bench-regression gate (tools/bench_regression_lib.hpp):
// snapshot parsing, tolerance arithmetic, and the stale-snapshot FAILs —
// a baseline micro row missing from the fresh run, and a campaign
// scenario-count change — that must never degrade into silent skips.
#include "../tools/bench_regression_lib.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

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
  const auto at = smoke_text.find("\"mode\":\"full\"");
  ASSERT_NE(at, std::string::npos);
  smoke_text.replace(at, 14, "\"mode\":\"smoke\"");
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
  const auto at = smoke_text.find("\"mode\": \"full\"");
  ASSERT_NE(at, std::string::npos);
  smoke_text.replace(at, 15, "\"mode\": \"smoke\"");
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

}  // namespace
}  // namespace specstab::benchgate
