// Registry-wide equivalence: results delivered over the serve socket
// must be byte-identical to direct in-process sessions — for every
// registered protocol, for cache hits vs cold misses, and for streamed
// traces re-materialized delta by delta.  This is the guarantee that
// makes the serve cache safe: a client cannot tell (even with a byte
// diff) whether its reply was computed or replayed.
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "graph/graph.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/protocol_registry.hpp"

namespace specstab::serve {
namespace {

std::string next_socket_path() {
  static int counter = 0;
  return "/tmp/specstab-serve-equiv-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++) + ".sock";
}

/// Builds the graph exactly as the server does: cli::graph_from_spec
/// over the canonical topology's whitespace-split tokens.
[[nodiscard]] Graph graph_for(const std::string& canonical) {
  std::vector<std::string> tokens;
  std::istringstream is(canonical);
  for (std::string token; is >> token;) tokens.push_back(token);
  std::size_t pos = 0;
  return cli::graph_from_spec(tokens, pos);
}

/// The fixed sweep spec: a deterministic daemon with a pinned seed, so
/// both sides of every comparison run the same schedule.
[[nodiscard]] SessionSpec sweep_spec() {
  SessionSpec spec;
  spec.daemon = "central-rr";
  spec.seed = 5;
  return spec;
}

[[nodiscard]] std::string sweep_request(int id, const std::string& method,
                                        const std::string& protocol,
                                        const std::string& topology) {
  return "{\"id\":" + std::to_string(id) + ",\"method\":\"" + method +
         "\",\"params\":{\"protocol\":\"" + protocol + "\",\"topology\":\"" +
         topology + "\",\"daemon\":\"central-rr\",\"seed\":5}}";
}

/// The (protocol, topology) sweep: ring 8 for everything, plus a
/// non-ring topology for protocols that support one.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> sweep() {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const ProtocolEntry& entry : ProtocolRegistry::instance().entries()) {
    pairs.emplace_back(entry.info.name, "ring 8");
    if (!entry.info.ring_only) pairs.emplace_back(entry.info.name, "torus 3 4");
  }
  return pairs;
}

/// The reply lines of a `trace` request for `sreq` as the direct traced
/// session renders them with the wire codec: the header, gamma_0, every
/// delta and the end line.
[[nodiscard]] std::vector<std::string> direct_trace_lines(
    const JsonValue& id, SessionRequest sreq) {
  sreq.spec.record_trace = true;
  const Graph g = graph_for(sreq.topology);
  const SessionResult direct =
      ProtocolRegistry::instance().at(sreq.protocol).run(g, sreq.spec);
  std::vector<std::string> lines;
  if (!direct.trace_config || direct.trace_length == 0) return lines;
  lines.push_back(render_result_line_raw(
      id, session_result_to_json(sreq, direct, true).dump()));
  lines.push_back(render_trace_init_line(id, direct.trace_config(0)));
  const StepIndex records = direct.trace_length - 1;
  for (StepIndex i = 0; i < records; ++i) {
    lines.push_back(render_trace_delta_line(id, i, direct.trace_delta(i)));
  }
  lines.push_back(render_trace_end_line(id, records));
  return lines;
}

/// Sends `request` and holds the streamed reply to `expected`, line by
/// line through the end line.
void expect_trace_stream(LineClient& client, const std::string& request,
                         const std::vector<std::string>& expected,
                         const std::string& what) {
  ASSERT_GE(expected.size(), 3u) << what << ": the direct session has no trace";
  ASSERT_TRUE(client.send_line(request)) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const std::optional<std::string> line = client.read_line();
    ASSERT_TRUE(line.has_value()) << what << " line " << i;
    ASSERT_EQ(*line + "\n", expected[i]) << what << " line " << i;
  }
}

/// The longest line of a stream, '\n' included.
[[nodiscard]] std::size_t longest(const std::vector<std::string>& lines) {
  std::size_t out = 0;
  for (const std::string& line : lines) out = std::max(out, line.size());
  return out;
}

class ServeEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServeOptions options;
    options.endpoint = Endpoint::unix_path(next_socket_path());
    server_ = std::make_unique<SessionServer>(options);
    server_->start();
  }
  void TearDown() override {
    server_->initiate_shutdown();
    server_->wait();
  }

  std::unique_ptr<SessionServer> server_;
};

TEST_F(ServeEquivalenceTest, RunRepliesMatchDirectSessionsByteForByte) {
  LineClient client(server_->endpoint());
  int id = 0;
  for (const auto& [protocol, topology] : sweep()) {
    ++id;
    const std::string reply =
        client.roundtrip(sweep_request(id, "run", protocol, topology));

    // The direct session, rendered with the same codec.
    SessionRequest sreq;
    sreq.protocol = protocol;
    sreq.topology = topology;
    sreq.spec = sweep_spec();
    const Graph g = graph_for(topology);
    const SessionResult direct =
        ProtocolRegistry::instance().at(protocol).run(g, sreq.spec);
    const std::string expected = render_result_line_raw(
        JsonValue(id), session_result_to_json(sreq, direct, false).dump());

    EXPECT_EQ(reply + "\n", expected) << protocol << " on " << topology;
  }
}

TEST_F(ServeEquivalenceTest, CacheHitBytesEqualColdMissBytes) {
  LineClient client(server_->endpoint());
  int id = 0;
  std::uint64_t expected_hits = 0;
  for (const auto& [protocol, topology] : sweep()) {
    ++id;
    const std::string line = sweep_request(id, "run", protocol, topology);
    const std::string cold = client.roundtrip(line);  // miss: computes
    const std::string warm = client.roundtrip(line);  // hit: replays
    EXPECT_EQ(cold, warm) << protocol << " on " << topology;
    ++expected_hits;
  }
  const SessionServer::Stats stats = server_->stats();
  EXPECT_EQ(stats.cache.hits, expected_hits);
  EXPECT_EQ(stats.cache.misses, expected_hits);  // each tuple missed once
}

TEST_F(ServeEquivalenceTest, CanonicalizationMakesSpellingsShareCacheBytes) {
  LineClient client(server_->endpoint());
  const std::string reply1 = client.roundtrip(
      "{\"id\":9,\"method\":\"run\",\"params\":{\"protocol\":\"ssme\","
      "\"topology\":\"ring 8\",\"daemon\":\"central-rr\",\"seed\":5}}");
  // Same tuple, scruffy spelling: must hit the cache and echo the
  // canonical topology — byte-identical result payload.
  const std::string reply2 = client.roundtrip(
      "{\"id\":9,\"method\":\"run\",\"params\":{\"protocol\":\"ssme\","
      "\"topology\":\"  ring\\t8 \",\"daemon\":\"central-rr\",\"seed\":5}}");
  EXPECT_EQ(reply1, reply2);
  EXPECT_GE(server_->stats().cache.hits, 1u);
}

TEST_F(ServeEquivalenceTest, StreamedTracesMatchDirectTraceByteForByte) {
  LineClient client(server_->endpoint());
  int id = 100;
  for (const ProtocolEntry& entry : ProtocolRegistry::instance().entries()) {
    ++id;
    SessionRequest sreq;
    sreq.protocol = entry.info.name;
    sreq.topology = "ring 8";
    sreq.spec = sweep_spec();
    expect_trace_stream(
        client, sweep_request(id, "trace", sreq.protocol, sreq.topology),
        direct_trace_lines(JsonValue(id), sreq), sreq.protocol);
  }
}

// The server writes a stream in batches of whole lines of at least
// 16 KiB.  The next two streams hold it to the direct session where one
// delta line alone outgrows a batch, and where a batch carries hundreds
// of short lines.

TEST_F(ServeEquivalenceTest, DeltaLinesLongerThanABatchStreamWhole) {
  LineClient client(server_->endpoint());
  SessionRequest sreq;
  sreq.protocol = "ssme";
  sreq.topology = "ring 600";
  sreq.spec.daemon = "synchronous";
  sreq.spec.seed = 5;
  sreq.spec.max_steps = 6;
  const std::vector<std::string> expected =
      direct_trace_lines(JsonValue(21), sreq);
  EXPECT_GT(longest(expected), std::size_t{16} << 10);
  expect_trace_stream(
      client,
      "{\"id\":21,\"method\":\"trace\",\"params\":{\"protocol\":\"ssme\","
      "\"topology\":\"ring 600\",\"daemon\":\"synchronous\",\"seed\":5,"
      "\"steps\":6}}",
      expected, "ssme synchronous on ring 600");
}

TEST_F(ServeEquivalenceTest, ThousandsOfShortLinesStreamInBatches) {
  LineClient client(server_->endpoint());
  SessionRequest sreq;
  sreq.protocol = "ssme";
  sreq.topology = "ring 64";
  sreq.spec = sweep_spec();
  const std::vector<std::string> expected =
      direct_trace_lines(JsonValue(22), sreq);
  EXPECT_GT(expected.size(), 1000u);
  EXPECT_LT(longest(expected), std::size_t{1} << 10);
  expect_trace_stream(client, sweep_request(22, "trace", "ssme", "ring 64"),
                      expected, "ssme central-rr on ring 64");
}

TEST_F(ServeEquivalenceTest, StreamedDeltasRematerializeTheFullTrace) {
  LineClient client(server_->endpoint());
  const std::string protocol = "ssme";
  const std::string topology = "ring 12";

  SessionRequest sreq;
  sreq.protocol = protocol;
  sreq.topology = topology;
  sreq.spec = sweep_spec();
  sreq.spec.record_trace = true;
  const Graph g = graph_for(topology);
  const SessionResult direct =
      ProtocolRegistry::instance().at(protocol).run(g, sreq.spec);
  ASSERT_TRUE(static_cast<bool>(direct.trace_config));

  ASSERT_TRUE(client.send_line(sweep_request(7, "trace", protocol, topology)));
  ASSERT_TRUE(client.read_line().has_value());  // header
  std::optional<std::string> line = client.read_line();
  ASSERT_TRUE(line.has_value());
  const JsonValue init = JsonValue::parse(*line);
  std::vector<std::string> config;
  for (const JsonValue& v : init.find("trace")->find("config")->as_array()) {
    config.push_back(v.as_string());
  }
  EXPECT_EQ(config, direct.trace_config(0));

  // Apply each streamed delta; after delta i the rebuilt configuration
  // must equal the direct session's gamma_{i+1}.
  StepIndex applied = 0;
  for (;;) {
    line = client.read_line();
    ASSERT_TRUE(line.has_value());
    const JsonValue rec = JsonValue::parse(*line);
    const JsonValue* trace = rec.find("trace");
    ASSERT_NE(trace, nullptr);
    if (trace->find("type")->as_string() == "end") {
      EXPECT_EQ(static_cast<StepIndex>(trace->find("records")->as_int()),
                applied);
      break;
    }
    ASSERT_EQ(trace->find("type")->as_string(), "delta");
    for (const JsonValue& change : trace->find("changes")->as_array()) {
      const auto v = static_cast<std::size_t>(change.find("v")->as_int());
      ASSERT_LT(v, config.size());
      EXPECT_EQ(config[v], change.find("before")->as_string());
      config[v] = change.find("after")->as_string();
    }
    ++applied;
    EXPECT_EQ(config, direct.trace_config(applied)) << "after delta "
                                                    << (applied - 1);
  }
  EXPECT_EQ(applied, direct.trace_length - 1);
  // The rebuilt end state is the reply's final_state.
  EXPECT_EQ(config, direct.final_state);
}

}  // namespace
}  // namespace specstab::serve
