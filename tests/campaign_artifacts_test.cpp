// Tests for campaign aggregation and artifact serialization: per-cell
// statistics, JSON/CSV round-trips, and byte-identical artifacts across
// thread counts.
#include "campaign/artifacts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "campaign/runner.hpp"
#include "campaign/stats.hpp"

namespace specstab::campaign {
namespace {

ScenarioResult row(std::string topology, std::size_t rep, StepIndex conv,
                   bool converged = true) {
  ScenarioResult r;
  r.index = rep;
  r.protocol = "ssme";
  r.topology = std::move(topology);
  r.daemon = "synchronous";
  r.init = "random";
  r.rep = rep;
  r.seed = 100 + rep;
  r.n = 8;
  r.diam = 4;
  r.steps = conv + 2;
  r.moves = 10 * conv;
  r.rounds = conv;
  r.converged = converged;
  r.convergence_steps = converged ? conv : -1;
  r.moves_to_convergence = converged ? 5 * conv : 0;
  r.rounds_to_convergence = converged ? conv : 0;
  r.hit_step_cap = !converged;
  r.closure_violations = 0;
  return r;
}

CampaignResult handmade() {
  CampaignResult result;
  result.threads_used = 1;
  for (StepIndex conv : {4, 2, 8, 6, 10}) {
    result.rows.push_back(row("ring 8", result.rows.size(), conv));
  }
  result.rows.push_back(row("path 8", 5, 0, /*converged=*/false));
  return result;
}

TEST(AggregateTest, PerCellStatistics) {
  const auto cells = aggregate(handmade());
  ASSERT_EQ(cells.size(), 2u);

  const CellSummary& ring = cells[0];
  EXPECT_EQ(ring.topology, "ring 8");
  EXPECT_EQ(ring.runs, 5u);
  EXPECT_EQ(ring.converged_runs, 5u);
  EXPECT_EQ(ring.min_steps, 2);
  EXPECT_EQ(ring.max_steps, 10);
  EXPECT_DOUBLE_EQ(ring.mean_steps, 6.0);
  EXPECT_EQ(ring.p95_steps, 10);  // nearest rank of 5 samples: the max
  EXPECT_EQ(ring.worst_moves, 50);
  EXPECT_EQ(ring.worst_rounds, 10);

  const CellSummary& path = cells[1];
  EXPECT_EQ(path.runs, 1u);
  EXPECT_EQ(path.converged_runs, 0u);
  EXPECT_EQ(path.step_cap_hits, 1u);
  EXPECT_EQ(path.min_steps, -1);
  EXPECT_EQ(path.max_steps, -1);
}

TEST(AggregateTest, WorstStepsAcrossCells) {
  const auto cells = aggregate(handmade());
  EXPECT_EQ(worst_steps(cells), 10);
  EXPECT_EQ(worst_steps({}), -1);
}

TEST(ArtifactsTest, CellsCsvRoundTrips) {
  const auto cells = aggregate(handmade());
  const auto csv = cells_to_csv(cells);
  const auto parsed = cells_from_csv(csv);
  ASSERT_EQ(parsed.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(parsed[i], cells[i]) << "cell " << i;
  }
}

TEST(ArtifactsTest, CellsJsonRoundTrips) {
  auto result = handmade();
  // A run's seed is a full 64-bit value: the runs array may hold an
  // integer past INT64_MAX, and the cells must still read back.
  result.rows[0].seed = std::numeric_limits<std::uint64_t>::max();
  const auto cells = aggregate(result);
  const auto json = to_json(result, cells);
  ASSERT_NE(json.find("\"seed\":18446744073709551615"), std::string::npos);
  const auto parsed = cells_from_json(json);
  ASSERT_EQ(parsed.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(parsed[i], cells[i]) << "cell " << i;
  }
}

TEST(ArtifactsTest, FractionalMeansSurviveTheRoundTrip) {
  CampaignResult result;
  result.rows.push_back(row("ring 8", 0, 1));
  result.rows.push_back(row("ring 8", 1, 2));
  result.rows.push_back(row("ring 8", 2, 4));
  const auto cells = aggregate(result);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_DOUBLE_EQ(cells[0].mean_steps, 7.0 / 3.0);  // non-terminating
  EXPECT_EQ(cells_from_csv(cells_to_csv(cells))[0], cells[0]);
  EXPECT_EQ(cells_from_json(to_json(result, cells))[0], cells[0]);
}

TEST(ArtifactsTest, MalformedInputsThrow) {
  EXPECT_THROW((void)cells_from_csv("not,a,header\n"), std::invalid_argument);
  // Corrupted numeric fields must fail loudly (no partial parse), and
  // overflow must surface as the documented std::invalid_argument.
  const auto cells = aggregate(handmade());
  auto csv = cells_to_csv(cells);
  const auto corrupt = [&](const std::string& from, const std::string& to) {
    auto copy = csv;
    copy.replace(copy.find(from), from.size(), to);
    return copy;
  };
  EXPECT_THROW(
      (void)cells_from_csv(corrupt("ring 8,synchronous,random,none,8",
                                   "ring 8,synchronous,random,none,8junk")),
      std::invalid_argument);
  EXPECT_THROW(
      (void)cells_from_csv(corrupt("ring 8,synchronous,random,none,8",
                                   "ring 8,synchronous,random,none,"
                                   "99999999999999999999")),
      std::invalid_argument);
  // n beyond VertexId (2^32 + 8) is refused, not read as 8.
  EXPECT_THROW(
      (void)cells_from_csv(corrupt("ring 8,synchronous,random,none,8",
                                   "ring 8,synchronous,random,none,"
                                   "4294967304")),
      std::invalid_argument);
  std::string json = to_json(CampaignResult{}, cells);
  json.replace(json.find("\"n\":8"), 5, "\"n\":4294967304");
  EXPECT_THROW((void)cells_from_json(json), std::invalid_argument) << json;
  EXPECT_THROW((void)cells_from_json("[1, 2"), std::invalid_argument);
  EXPECT_THROW((void)cells_from_json("{\"cells\":[{\"protocol\":\"\\uzzzz\"}]}"),
               std::invalid_argument);
  EXPECT_THROW((void)cells_from_json("{\"cells\": 3}"),
               std::invalid_argument);
  EXPECT_THROW((void)cells_from_json("{}"), std::invalid_argument);
}

/// One cell with every field set, no aggregate needed.
CellSummary full_cell() {
  CellSummary c;
  c.protocol = "ssme";
  c.topology = "ring 8";
  c.daemon = "synchronous";
  c.init = "random";
  c.perturb = "none";
  c.n = 8;
  c.diam = 4;
  c.runs = 3;
  c.converged_runs = 2;
  c.step_cap_hits = 1;
  c.min_steps = 2;
  c.max_steps = 9;
  c.mean_steps = 13.0 / 3.0;
  c.p95_steps = 9;
  c.worst_moves = 40;
  c.worst_rounds = 9;
  c.recovery_mean = 0.1;
  return c;
}

TEST(ArtifactsTest, JsonIntegersRoundTripExactly) {
  // Beyond 2^53 a double cannot hold every integer: each int64 field
  // must come back bit for bit, not through a double.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kPast53 = (std::int64_t{1} << 53) + 1;
  CellSummary c = full_cell();
  c.n = std::numeric_limits<VertexId>::max();
  c.diam = std::numeric_limits<VertexId>::min();
  c.runs = static_cast<std::size_t>(kMax);
  c.converged_runs = static_cast<std::size_t>(kPast53);
  c.min_steps = kMin;
  c.max_steps = kMax;
  c.p95_steps = kPast53;
  c.worst_moves = kPast53;
  c.worst_rounds = kMax;
  c.closure_violations = kMin;
  c.perturb_epochs = kPast53;
  c.perturb_unrecovered = kMax;
  c.recovery_min = kMin;
  c.recovery_max = kMax;
  c.recovery_p95 = kPast53;
  const std::string json = to_json(CampaignResult{}, {c});
  EXPECT_NE(json.find("\"worst_moves\":9007199254740993"), std::string::npos)
      << json;
  const auto parsed = cells_from_json(json);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].worst_moves, kPast53);
  EXPECT_EQ(parsed[0].max_steps, kMax);
  EXPECT_EQ(parsed[0].min_steps, kMin);
  EXPECT_EQ(parsed[0], c);
  // The CSV reader was already exact; both formats agree.
  EXPECT_EQ(cells_from_csv(cells_to_csv({c}))[0], c);
}

TEST(ArtifactsTest, JsonStringsRoundTripEveryEscape) {
  // '"', '\\', '\n', '\r' and '\t' by name, other control bytes as
  // \u00xx, UTF-8 raw: the codec's minimal spelling.
  const std::string nasty = "q\"b\\n\nr\rt\tc\x01u\xc5\x81";
  const std::string spelled = "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001u\xc5\x81\"";
  CellSummary c = full_cell();
  c.protocol = nasty;
  c.topology = nasty + "t";
  c.daemon = nasty + "d";
  c.init = nasty + "i";
  c.perturb = nasty + "p";
  const std::string json = to_json(CampaignResult{}, {c});
  EXPECT_NE(json.find("\"protocol\":" + spelled), std::string::npos) << json;
  EXPECT_EQ(json.find("\\u000d"), std::string::npos) << json;
  const auto parsed = cells_from_json(json);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], c);
}

TEST(ArtifactsTest, JsonUnicodeEscapesReadBackAsUtf8) {
  // A reader may spell a string's code points as \uXXXX escapes; they
  // decode to UTF-8 (U+0141 is the two bytes C5 81).
  CellSummary c = full_cell();
  std::string json = to_json(CampaignResult{}, {c});
  const std::string written = "\"protocol\":\"ssme\"";
  const auto at = json.find(written);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, written.size(), "\"protocol\":\"\\u0141\"");
  const auto parsed = cells_from_json(json);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].protocol, "\xc5\x81");
  c.protocol = "\xc5\x81";
  EXPECT_EQ(parsed[0], c);
}

TEST(ArtifactsTest, NegativeCountsThrow) {
  // runs, converged_runs and step_cap_hits are counts: -1 must not read
  // back as 2^64 - 1 from either format.
  std::string csv = cells_to_csv({full_cell()});
  const std::string counts = ",8,4,3,2,1,";
  ASSERT_NE(csv.find(counts), std::string::npos) << csv;
  csv.replace(csv.find(counts), counts.size(), ",8,4,-1,2,1,");
  EXPECT_THROW((void)cells_from_csv(csv), std::invalid_argument) << csv;

  const std::string json = to_json(CampaignResult{}, {full_cell()});
  for (const std::string written :
       {"\"runs\":3", "\"converged_runs\":2", "\"step_cap_hits\":1"}) {
    std::string copy = json;
    const auto at = copy.find(written);
    ASSERT_NE(at, std::string::npos) << written;
    copy.replace(at, written.size(),
                 written.substr(0, written.find(':') + 1) + "-1");
    EXPECT_THROW((void)cells_from_json(copy), std::invalid_argument)
        << copy;
  }
}

TEST(ArtifactsTest, RealCampaignJsonReadsBack) {
  // scenario_seed() is splitmix64, so about half of a real campaign's
  // seeds are past INT64_MAX: the document `specstab campaign` writes
  // must read back to the cells it was written from.
  CampaignGrid g;
  g.protocols = {"ssme"};
  g.topologies = {{"ring", 5}, {"path", 4}};
  g.daemons = {"synchronous", "central-random"};
  g.inits = {"random"};
  g.reps = 4;
  g.base_seed = 99;
  const auto result = run_campaign(g, {.threads = 1});
  ASSERT_TRUE(std::any_of(
      result.rows.begin(), result.rows.end(), [](const ScenarioResult& r) {
        return r.seed > static_cast<std::uint64_t>(
                            std::numeric_limits<std::int64_t>::max());
      }));
  const auto cells = aggregate(result);
  EXPECT_EQ(cells_from_json(to_json(result, cells)), cells);
}

TEST(ArtifactsTest, RunsCsvHasOneLinePerRow) {
  const auto result = handmade();
  const auto csv = runs_to_csv(result);
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, result.rows.size() + 1);  // header + rows
  EXPECT_NE(csv.find("index,protocol,topology"), std::string::npos);
}

TEST(ArtifactsTest, JsonIsByteIdenticalAcrossThreadCounts) {
  CampaignGrid g;
  g.protocols = {"ssme"};
  g.topologies = {{"ring", 5}, {"path", 4}};
  g.daemons = {"synchronous", "central-random"};
  g.inits = {"random"};
  g.reps = 4;
  g.base_seed = 99;

  const auto serial = run_campaign(g, {.threads = 1});
  const auto parallel = run_campaign(g, {.threads = 8});
  EXPECT_EQ(serial.threads_used, 1u);
  EXPECT_EQ(parallel.threads_used, 8u);
  EXPECT_EQ(to_json(serial, aggregate(serial)),
            to_json(parallel, aggregate(parallel)));
  EXPECT_EQ(cells_to_csv(aggregate(serial)),
            cells_to_csv(aggregate(parallel)));
  EXPECT_EQ(runs_to_csv(serial), runs_to_csv(parallel));
}

TEST(CellAccumulatorTest, MergeIsOrderIndependent) {
  // The work-stealing contract: rows folded into partial accumulators in
  // any partition and any order merge to exactly the single-pass result.
  CampaignResult result;
  for (std::size_t rep = 0; rep < 17; ++rep) {
    result.rows.push_back(
        row("ring 8", rep, static_cast<StepIndex>(3 + 7 * rep % 23),
            rep % 5 != 0));
  }
  const auto reference = aggregate(result);
  ASSERT_EQ(reference.size(), 1u);

  // Three partitions (round-robin), each folded in reverse row order,
  // merged out of order.
  CellAccumulator parts[3];
  for (std::size_t i = result.rows.size(); i-- > 0;) {
    parts[i % 3].add(result.rows[i]);
  }
  CellAccumulator merged;
  merged.merge(parts[2]);
  merged.merge(parts[0]);
  merged.merge(parts[1]);
  EXPECT_EQ(merged.finalize(), reference[0]);

  // Merging into a non-empty accumulator commutes too.
  CellAccumulator other;
  other.merge(parts[1]);
  other.merge(parts[2]);
  other.merge(parts[0]);
  EXPECT_EQ(other.finalize(), reference[0]);
}

TEST(CellAccumulatorTest, RejectsRowsFromDifferentCells) {
  CellAccumulator acc;
  acc.add(row("ring 8", 0, 5));
  EXPECT_THROW(acc.add(row("path 9", 1, 5)), std::invalid_argument);

  CellAccumulator one, two;
  one.add(row("ring 8", 0, 5));
  two.add(row("path 9", 1, 5));
  EXPECT_THROW(one.merge(two), std::invalid_argument);

  // Merging an empty accumulator in either direction is a no-op / copy.
  CellAccumulator empty;
  one.merge(empty);
  EXPECT_EQ(one.finalize().runs, 1u);
  empty.merge(one);
  EXPECT_EQ(empty.finalize().runs, 1u);
}

TEST(ArtifactsTest, WriteTextFileWritesAndOverwrites) {
  const std::string path = "campaign_artifacts_test.tmp";
  write_text_file(path, "hello\n");
  write_text_file(path, "world\n");
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "world\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace specstab::campaign
