// Wire-protocol tests for `specstab serve`, driven over real sockets
// against an in-process SessionServer: malformed-input fuzzing (every
// bad line gets a structured error, the connection and the server
// survive), oversized-line resync, partial writes, pipelining, busy
// backpressure, abrupt disconnect mid-stream, and drain-on-shutdown.
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

namespace specstab::serve {
namespace {

/// Fresh unix-socket path per server, so tests never collide.
std::string next_socket_path() {
  static int counter = 0;
  return "/tmp/specstab-serve-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++) + ".sock";
}

/// An in-process server on a private unix socket, drained on teardown.
class ServerHarness {
 public:
  explicit ServerHarness(ServeOptions options = {}) : server_([&] {
    options.endpoint = Endpoint::unix_path(next_socket_path());
    return options;
  }()) {
    server_.start();
  }
  ~ServerHarness() {
    server_.initiate_shutdown();
    server_.wait();
  }

  [[nodiscard]] SessionServer& server() { return server_; }
  [[nodiscard]] LineClient connect() { return LineClient(server_.endpoint()); }

 private:
  SessionServer server_;
};

[[nodiscard]] std::string error_code(const std::string& reply) {
  const JsonValue parsed = JsonValue::parse(reply);
  const JsonValue* error = parsed.find("error");
  if (error == nullptr) return "";
  const JsonValue* code = error->find("code");
  return code != nullptr ? code->as_string() : "";
}

[[nodiscard]] bool is_result(const std::string& reply) {
  return JsonValue::parse(reply).find("result") != nullptr;
}

[[nodiscard]] std::string run_request(int id, const std::string& protocol,
                                      const std::string& topology,
                                      const std::string& extra = "") {
  return "{\"id\":" + std::to_string(id) + ",\"method\":\"run\",\"params\":{" +
         "\"protocol\":\"" + protocol + "\",\"topology\":\"" + topology +
         "\"" + extra + "}}";
}

TEST(ServeProtocolTest, MalformedLinesGetStructuredErrorsNeverCrash) {
  ServerHarness harness;
  LineClient client = harness.connect();

  struct Case {
    const char* line;
    const char* expected_code;
  };
  const Case cases[] = {
      {"garbage", "parse"},
      {"{\"id\": 1, \"method\":", "parse"},  // truncated JSON
      {"[1,2,3]", "invalid"},                // JSON but not an object
      {"{\"id\":1,\"method\":9}", "invalid"},          // method wrong type
      {"{\"id\":1,\"params\":{}}", "invalid"},         // method missing
      {"{\"id\":1,\"method\":\"run\",\"params\":[]}", "invalid"},
      {"{\"id\":1,\"method\":\"frobnicate\"}", "invalid"},  // unknown method
      {"{\"id\":1,\"method\":\"run\",\"params\":{}}", "invalid"},
  };
  for (const Case& c : cases) {
    const std::string reply = client.roundtrip(c.line);
    EXPECT_EQ(error_code(reply), c.expected_code) << "line: " << c.line;
  }
  EXPECT_EQ(error_code(client.roundtrip(
                run_request(2, "no-such-protocol", "ring 8"))),
            "invalid");
  EXPECT_EQ(error_code(client.roundtrip(run_request(
                3, "ssme", "ring 8", ",\"daemon\":\"no-such-daemon\""))),
            "invalid");
  EXPECT_EQ(error_code(client.roundtrip(run_request(
                4, "ssme", "ring 8", ",\"init\":\"no-such-init\""))),
            "invalid");
  EXPECT_EQ(error_code(client.roundtrip(
                run_request(5, "ssme", "ring 8", ",\"surprise\":true"))),
            "invalid");
  EXPECT_EQ(error_code(client.roundtrip(run_request(6, "ssme", "blorp 3"))),
            "invalid");  // unknown topology family (fails in the worker)
  EXPECT_EQ(error_code(client.roundtrip(run_request(7, "ssme", "ring"))),
            "invalid");  // family missing its size

  // After all that abuse, the same connection still serves sessions.
  const std::string reply = client.roundtrip(run_request(8, "ssme", "ring 8"));
  EXPECT_TRUE(is_result(reply)) << reply;
  EXPECT_EQ(harness.server().stats().active_connections, 1u);
}

TEST(ServeProtocolTest, ErrorRepliesEchoTheRequestId) {
  ServerHarness harness;
  LineClient client = harness.connect();
  const JsonValue reply = JsonValue::parse(
      client.roundtrip("{\"id\":\"tag-77\",\"method\":\"nope\"}"));
  ASSERT_NE(reply.find("id"), nullptr);
  EXPECT_EQ(reply.find("id")->as_string(), "tag-77");
  // Unparseable line -> id null (there is nothing to echo).
  const JsonValue bad = JsonValue::parse(client.roundtrip("{{{"));
  ASSERT_NE(bad.find("id"), nullptr);
  EXPECT_EQ(bad.find("id")->kind(), JsonValue::Kind::kNull);
}

TEST(ServeProtocolTest, OversizedLineYieldsErrorThenResyncs) {
  ServeOptions options;
  options.max_line_bytes = 256;
  ServerHarness harness(options);
  LineClient client = harness.connect();

  std::string huge = "{\"id\":1,\"method\":\"run\",\"params\":{\"pad\":\"";
  huge.append(1024, 'x');
  huge += "\"}}";
  const std::string reply = client.roundtrip(huge);
  EXPECT_EQ(error_code(reply), "oversized");
  // Framing survives: the next (normal) line parses and runs.
  EXPECT_TRUE(is_result(client.roundtrip(run_request(2, "ssme", "ring 8"))));
}

TEST(ServeProtocolTest, PartialWritesAssembleIntoOneRequest) {
  ServerHarness harness;
  LineClient client = harness.connect();
  const std::string line = run_request(42, "ssme", "ring 8") + "\n";
  // Dribble the request across the socket in three flushes.
  const std::size_t third = line.size() / 3;
  ASSERT_TRUE(client.send_raw(line.substr(0, third)));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(client.send_raw(line.substr(third, third)));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(client.send_raw(line.substr(2 * third)));
  const std::optional<std::string> reply = client.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(is_result(*reply));
  EXPECT_EQ(JsonValue::parse(*reply).find("id")->as_int(), 42);
}

TEST(ServeProtocolTest, BlankLinesAreIgnoredKeepAlive) {
  ServerHarness harness;
  LineClient client = harness.connect();
  ASSERT_TRUE(client.send_raw("\n\n\n"));
  const std::string reply = client.roundtrip(run_request(1, "ssme", "ring 8"));
  EXPECT_TRUE(is_result(reply));
}

TEST(ServeProtocolTest, PipelinedRequestsReplyInOrderWithOneWorker) {
  ServeOptions options;
  options.threads = 1;  // FIFO queue + one worker => deterministic order
  options.queue_capacity = 64;
  ServerHarness harness(options);
  LineClient client = harness.connect();
  constexpr int kCount = 10;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(client.send_line(
        run_request(i, "ssme", "ring 8",
                    ",\"seed\":" + std::to_string(100 + i))));
  }
  for (int i = 0; i < kCount; ++i) {
    const std::optional<std::string> reply = client.read_line();
    ASSERT_TRUE(reply.has_value()) << "reply " << i;
    EXPECT_TRUE(is_result(*reply));
    EXPECT_EQ(JsonValue::parse(*reply).find("id")->as_int(), i);
  }
}

TEST(ServeProtocolTest, FullQueueRepliesBusyNeverSilentDrop) {
  ServeOptions options;
  options.threads = 1;
  options.queue_capacity = 1;  // one in flight + one waiting, rest busy
  ServerHarness harness(options);
  LineClient client = harness.connect();

  // Chunky-enough sessions that the single worker cannot drain the
  // queue between two reader-thread parses; distinct seeds so none are
  // cache hits.
  constexpr int kCount = 30;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(client.send_line(
        run_request(i, "ssme", "ring 128",
                    ",\"daemon\":\"central-rr\",\"seed\":" +
                        std::to_string(500 + i))));
  }
  int results = 0;
  int busy = 0;
  for (int i = 0; i < kCount; ++i) {
    const std::optional<std::string> reply = client.read_line();
    ASSERT_TRUE(reply.has_value()) << "reply " << i;
    if (is_result(*reply)) {
      ++results;
    } else {
      EXPECT_EQ(error_code(*reply), "busy") << *reply;
      ++busy;
    }
  }
  // The contract: every request is answered, overload answers `busy`.
  EXPECT_EQ(results + busy, kCount);
  EXPECT_GE(busy, 1);
  EXPECT_GE(results, 1);  // at least the first accepted job ran
  EXPECT_EQ(harness.server().stats().busy_rejections,
            static_cast<std::uint64_t>(busy));
}

TEST(ServeProtocolTest, AbruptDisconnectMidTraceStreamIsHarmless) {
  ServerHarness harness;
  {
    LineClient client = harness.connect();
    ASSERT_TRUE(client.send_line(
        "{\"id\":1,\"method\":\"trace\",\"params\":{\"protocol\":\"ssme\","
        "\"topology\":\"ring 32\",\"daemon\":\"central-rr\"}}"));
    // Take the header and the first stream line, then slam the door.
    ASSERT_TRUE(client.read_line().has_value());
    ASSERT_TRUE(client.read_line().has_value());
    client.abort();
  }
  // The worker's remaining writes fail against the dead connection; the
  // server carries on.  Prove it with a fresh session.
  LineClient fresh = harness.connect();
  EXPECT_TRUE(is_result(fresh.roundtrip(run_request(2, "ssme", "ring 8"))));
  // Allow the dead connection's reader to unregister.
  for (int i = 0; i < 100; ++i) {
    if (harness.server().stats().active_connections == 1u) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(harness.server().stats().active_connections, 1u);
}

TEST(ServeProtocolTest, HalfCloseDrainsPendingRepliesBeforeEof) {
  ServeOptions options;
  options.threads = 1;
  options.queue_capacity = 64;
  ServerHarness harness(options);
  LineClient client = harness.connect();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.send_line(
        run_request(i, "ssme", "ring 8",
                    ",\"seed\":" + std::to_string(900 + i))));
  }
  client.finish_writes();  // server reader sees EOF after the 5 lines
  int replies = 0;
  while (client.read_line().has_value()) ++replies;
  EXPECT_EQ(replies, 5);  // every accepted job still answered
}

TEST(ServeProtocolTest, ShutdownRpcAcknowledgesThenDrains) {
  auto harness = std::make_unique<ServerHarness>();
  SessionServer& server = harness->server();
  LineClient client(server.endpoint());
  EXPECT_TRUE(is_result(client.roundtrip(run_request(1, "ssme", "ring 8"))));
  const std::string ack =
      client.roundtrip("{\"id\":2,\"method\":\"shutdown\"}");
  const JsonValue parsed = JsonValue::parse(ack);
  ASSERT_NE(parsed.find("result"), nullptr);
  EXPECT_TRUE(parsed.find("result")->find("draining")->as_bool());
  server.wait();  // returns only after the full drain
  EXPECT_FALSE(client.read_line().has_value());  // connection closed
  EXPECT_THROW((void)LineClient(server.endpoint()), std::runtime_error);
  harness.reset();  // teardown's shutdown+wait must be idempotent
}

TEST(ServeProtocolTest, TcpLoopbackEphemeralPortSmoke) {
  ServeOptions options;
  options.endpoint = Endpoint::tcp(0);
  SessionServer server(options);
  server.start();
  EXPECT_NE(server.port(), 0);
  LineClient client(Endpoint::tcp(server.port()));
  const JsonValue reply =
      JsonValue::parse(client.roundtrip("{\"id\":1,\"method\":\"list\"}"));
  const JsonValue* result = reply.find("result");
  ASSERT_NE(result, nullptr);
  const JsonValue* protocols = result->find("protocols");
  ASSERT_NE(protocols, nullptr);
  bool has_ssme = false;
  for (const JsonValue& p : protocols->as_array()) {
    if (p.find("name") != nullptr && p.find("name")->as_string() == "ssme") {
      has_ssme = true;
    }
  }
  EXPECT_TRUE(has_ssme);
  EXPECT_TRUE(
      is_result(client.roundtrip(run_request(2, "ssme", "ring 8"))));
  server.initiate_shutdown();
  server.wait();
}

TEST(ServeProtocolTest, StatsMethodReportsLiveCounters) {
  ServerHarness harness;
  LineClient client = harness.connect();
  // Same canonical tuple twice: miss then hit.
  ASSERT_TRUE(is_result(client.roundtrip(run_request(1, "ssme", "ring 8"))));
  ASSERT_TRUE(is_result(client.roundtrip(run_request(2, "ssme", "ring 8"))));
  const JsonValue reply =
      JsonValue::parse(client.roundtrip("{\"id\":3,\"method\":\"stats\"}"));
  const JsonValue* result = reply.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GE(result->find("requests")->as_int(), 3);
  EXPECT_GE(result->find("sessions_completed")->as_int(), 2);
  const JsonValue* cache = result->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->find("hits")->as_int(), 1);
  EXPECT_GE(cache->find("misses")->as_int(), 1);
}

TEST(ServeProtocolTest, ImmediateRepeatOfEveryRunHitsTheCache) {
  // A run reply is written only after its result is cached, so a client
  // repeating a request as soon as it holds the reply always hits.
  ServerHarness harness;
  LineClient client = harness.connect();
  constexpr int kUnique = 24;
  for (int i = 0; i < kUnique; ++i) {
    const std::string seed = ",\"seed\":" + std::to_string(100 + i);
    const std::string line = run_request(i, "ssme", "ring 8", seed);
    const std::string cold = client.roundtrip(line);
    ASSERT_TRUE(is_result(cold)) << cold;
    EXPECT_EQ(client.roundtrip(line), cold);
  }
  const JsonValue reply =
      JsonValue::parse(client.roundtrip("{\"id\":3,\"method\":\"stats\"}"));
  const JsonValue* result = reply.find("result");
  ASSERT_NE(result, nullptr);
  const JsonValue* cache = result->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("hits")->as_int(), kUnique);
  EXPECT_EQ(cache->find("misses")->as_int(), kUnique);
}

}  // namespace
}  // namespace specstab::serve
