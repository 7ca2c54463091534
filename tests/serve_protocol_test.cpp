// Wire-protocol tests for `specstab serve`, driven over real sockets
// against an in-process SessionServer: malformed-input fuzzing (every
// bad line gets a structured error, the connection and the server
// survive), oversized-line resync, partial writes, pipelining, busy
// backpressure, abrupt disconnect mid-stream, drain-on-shutdown (by
// request and by the stop fd), a bounded thread count whatever a
// request's `threads` asks for or however many clients connect, bounded
// VmSize as connections churn, concurrent first sessions on one fresh
// topology, and a server out of fds that keeps serving instead of
// draining.
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <latch>
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
      // JSON forbids leading zeros.
      {"{\"id\":1,\"method\":\"run\",\"params\":{\"protocol\":\"ssme\","
       "\"topology\":\"ring 8\",\"steps\":0500}}",
       "parse"},
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
  // Numbers a session cannot use: a Bernoulli p the sampler cannot draw
  // from (NaN, or 1 - p == 1) and a ring size beyond VertexId.
  for (const char* daemon : {"bernoulli-nan", "bernoulli-1e-17"}) {
    EXPECT_EQ(error_code(client.roundtrip(run_request(
                  8, "ssme", "ring 8",
                  std::string(",\"daemon\":\"") + daemon + "\""))),
              "invalid")
        << daemon;
  }
  EXPECT_EQ(error_code(
                client.roundtrip(run_request(9, "ssme", "ring 4294967304"))),
            "invalid");

  // After all that abuse, the same connection still serves sessions.
  const std::string reply = client.roundtrip(run_request(10, "ssme", "ring 8"));
  EXPECT_TRUE(is_result(reply)) << reply;
  const std::string list =
      client.roundtrip("{\"id\":11,\"method\":\"list\"}");
  EXPECT_TRUE(is_result(list)) << list;
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

TEST(ServeProtocolTest, ConcurrentFirstRunsShareOneFreshTopology) {
  // Four workers take the first sessions on a topology no request has
  // used yet, so they make the first reads of the cached graph at once.
  // Coloring never asks for the diameter (a wheel's is a closed form
  // anyway), so nothing reads the graph before them.  Distinct seeds make
  // every request a cache miss; each must get a result.
  constexpr int kClients = 4;
  ServeOptions options;
  options.threads = kClients;
  ServerHarness harness(options);
  for (const int n : {20, 21, 22}) {
    const std::string topology = "wheel " + std::to_string(n);
    std::vector<LineClient> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) clients.push_back(harness.connect());
    std::vector<std::string> replies(kClients);
    std::latch start(kClients);
    std::vector<std::thread> senders;
    for (int i = 0; i < kClients; ++i) {
      senders.emplace_back([&, i] {
        const auto slot = static_cast<std::size_t>(i);
        start.arrive_and_wait();
        replies[slot] = clients[slot].roundtrip(run_request(
            i, "coloring", topology, ",\"seed\":" + std::to_string(i + 1)));
      });
    }
    for (auto& t : senders) t.join();
    for (const std::string& reply : replies) {
      EXPECT_TRUE(is_result(reply)) << topology << ": " << reply;
    }
  }
}

/// Threads of this process, counted from /proc/self/task.
[[nodiscard]] std::size_t thread_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(
      std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

TEST(ServeProtocolTest, RequestThreadsAreClampedToTheWorkerPool) {
  // Every session worker owns an engine pool, even a single-participant
  // one, so a request's `threads` only picks a shard count within it:
  // asking for 4096 threads (through the `parallel` engine synonym) must
  // not add one thread to the server, and the reply must equal the
  // one-thread reply.
  ServeOptions options;
  options.threads = 1;
  options.engine_threads = 1;
  ServerHarness harness(options);
  LineClient client = harness.connect();
  const std::string args = ",\"seed\":5,\"steps\":400";
  const std::string single =
      client.roundtrip(run_request(1, "unison", "ring 512", args));
  ASSERT_TRUE(is_result(single)) << single;

  // The sampler starts before the baseline, so it is part of it.
  std::atomic<bool> sampling{true};
  std::atomic<std::size_t> peak{0};
  std::thread sampler([&] {
    while (sampling.load()) {
      const std::size_t now = thread_count();
      std::size_t seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
    }
  });
  while (peak.load() == 0) std::this_thread::yield();
  const std::size_t before = thread_count();
  peak.store(before);
  const std::string wide = client.roundtrip(
      run_request(2, "unison", "ring 512",
                  args + ",\"engine\":\"parallel\",\"threads\":4096"));
  sampling.store(false);
  sampler.join();
  ASSERT_TRUE(is_result(wide)) << wide;
  EXPECT_LE(peak.load(), before);

  const JsonValue a = *JsonValue::parse(single).find("result");
  const JsonValue b = *JsonValue::parse(wide).find("result");
  for (const char* key :
       {"steps", "moves", "rounds", "terminated", "hit_step_cap", "converged",
        "convergence_steps", "moves_to_convergence", "rounds_to_convergence",
        "closure_violations", "final_digest"}) {
    ASSERT_NE(a.find(key), nullptr) << key;
    ASSERT_NE(b.find(key), nullptr) << key;
    EXPECT_EQ(a.find(key)->dump(), b.find(key)->dump()) << key;
  }
}

/// VmSize of this process in KiB, from /proc/self/status (-1 if absent).
[[nodiscard]] std::int64_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  return -1;
}

TEST(ServeProtocolTest, ChurnedConnectionsReleaseTheirReaderThreads) {
  // One event loop reads every connection, so a connection owns no
  // thread, and 200 sequential short connections must not leave
  // anything the size of a thread stack behind.
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  std::size_t stack_bytes = 0;
  ASSERT_EQ(pthread_attr_getstacksize(&attr, &stack_bytes), 0);
  pthread_attr_destroy(&attr);
  const auto stack_kib = static_cast<std::int64_t>(stack_bytes / 1024);

  ServerHarness harness;
  const std::string list = "{\"id\":1,\"method\":\"list\"}";
  {
    LineClient warm = harness.connect();
    ASSERT_TRUE(is_result(warm.roundtrip(list)));
  }
  const std::int64_t before = vm_size_kib();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 200; ++i) {
    LineClient client = harness.connect();
    ASSERT_TRUE(is_result(client.roundtrip(list))) << "connection " << i;
  }
  const std::int64_t grown = vm_size_kib() - before;
  EXPECT_LT(grown, 25 * stack_kib) << "VmSize grew by " << grown << " KiB";
}

TEST(ServeProtocolTest, StopFdDrainsWithoutAWatcherThread) {
  // The event loop polls the stop fd (the CLI's signal pipe) beside the
  // listener, its wake pipe and every connection, so a server with one
  // worker and single-participant engine pools runs exactly two threads
  // once a client is connected: the loop and the worker.
  int stop_pipe[2];
  ASSERT_EQ(::pipe(stop_pipe), 0);
  // ThreadSanitizer starts a helper thread with the process's first
  // pthread_create; start and join one here so `before` counts it.
  std::thread([] {}).join();
  const std::size_t before = thread_count();
  ServeOptions options;
  options.threads = 1;
  options.engine_threads = 1;
  options.stop_fd = stop_pipe[0];
  options.endpoint = Endpoint::unix_path(next_socket_path());
  {
    SessionServer server(options);
    server.start();
    LineClient client(server.endpoint());
    ASSERT_TRUE(is_result(client.roundtrip("{\"id\":1,\"method\":\"list\"}")));
    EXPECT_EQ(thread_count() - before, 2u);
    // One byte on the stop fd drains the server without any other call.
    const char byte = 1;
    ASSERT_EQ(::write(stop_pipe[1], &byte, 1), 1);
    server.wait();
    EXPECT_FALSE(client.read_line().has_value());  // connection closed
  }
  ::close(stop_pipe[0]);
  ::close(stop_pipe[1]);
}

TEST(ServeProtocolTest, DefaultThreadCountsResolveAgainstTheHardware) {
  // `threads` 0 starts one worker per hardware thread, and the engine
  // pools split the hardware between the workers; the `listening`
  // banner prints both resolved counts.
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  {
    ServerHarness harness;
    EXPECT_EQ(harness.server().worker_threads(), hardware);
    EXPECT_EQ(harness.server().engine_threads(), 1u);
  }
  ServeOptions options;
  options.threads = 2;
  ServerHarness harness(options);
  EXPECT_EQ(harness.server().worker_threads(), 2u);
  EXPECT_EQ(harness.server().engine_threads(), std::max(1u, hardware / 2));
}

TEST(ServeProtocolTest, ConcurrentConnectionsAddNoThreads) {
  // A connection costs the server an fd and a buffer, not a thread: 64
  // clients held open at once run on the threads one client needs, and
  // VmSize stays below the churn test's bound of 25 default stacks.
  // Kept at 64: a server with a thread per connection would start them.
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  std::size_t stack_bytes = 0;
  ASSERT_EQ(pthread_attr_getstacksize(&attr, &stack_bytes), 0);
  pthread_attr_destroy(&attr);
  const auto stack_kib = static_cast<std::int64_t>(stack_bytes / 1024);

  ServerHarness harness;
  const std::string list = "{\"id\":1,\"method\":\"list\"}";
  std::vector<LineClient> clients;
  clients.reserve(64);
  clients.push_back(harness.connect());
  ASSERT_TRUE(is_result(clients.back().roundtrip(list)));
  const std::size_t threads = thread_count();
  const std::int64_t before = vm_size_kib();
  ASSERT_GT(before, 0);
  for (int i = 1; i < 64; ++i) {
    clients.push_back(harness.connect());
    ASSERT_TRUE(is_result(clients.back().roundtrip(list))) << "client " << i;
  }
  EXPECT_EQ(harness.server().stats().active_connections, 64u);
  EXPECT_EQ(thread_count(), threads);
  const std::int64_t grown = vm_size_kib() - before;
  EXPECT_LT(grown, 25 * stack_kib) << "VmSize grew by " << grown << " KiB";
}

/// The highest fd this process holds open, from /proc/self/fd.
[[nodiscard]] int highest_open_fd() {
  int highest = -1;
  const std::filesystem::directory_iterator fds("/proc/self/fd");
  for (const auto& entry : fds) {
    highest = std::max(highest, std::stoi(entry.path().filename().string()));
  }
  return highest;
}

/// CPU time this process has used, all threads, in seconds.
[[nodiscard]] double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(ServeProtocolTest, FdExhaustionDoesNotDrainTheServer) {
  // A server whose accept() fails for want of an fd keeps serving its
  // open connections and accepts the waiting client once an fd frees up;
  // it must neither take the failure for a shutdown nor spin on it.
  ServeOptions options;
  options.threads = 1;
  ServerHarness harness(options);
  LineClient a = harness.connect();
  ASSERT_TRUE(is_result(a.roundtrip("{\"id\":1,\"method\":\"list\"}")));

  // Fill every fd below a lowered soft limit, then free exactly one for
  // client B's socket: the server's accept() of B hits EMFILE.  Nothing
  // in the window may return early, or the test would leave the process
  // short of fds.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(highest_open_fd() + 16);
  ASSERT_LE(lowered.rlim_cur, saved.rlim_cur);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  std::vector<int> fillers;
  for (int fd = ::dup(a.fd()); fd != -1; fd = ::dup(a.fd())) {
    fillers.push_back(fd);
  }
  const int filled_errno = errno;
  if (!fillers.empty()) {
    ::close(fillers.back());
    fillers.pop_back();
  }
  std::optional<LineClient> b;
  try {
    b.emplace(harness.server().endpoint());
  } catch (const std::runtime_error&) {
  }
  const double cpu_before = cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double cpu_used = cpu_seconds() - cpu_before;
  const std::uint64_t accepted = harness.server().stats().connections_accepted;
  for (const int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_EQ(filled_errno, EMFILE);
  ASSERT_FALSE(fillers.empty());
  ASSERT_TRUE(b.has_value()) << "client B could not connect";
  ASSERT_EQ(accepted, 1u) << "B was accepted with no fd to spare";
  // The loop waits between accept() attempts instead of spinning on the
  // pending connection.
  EXPECT_LT(cpu_used, 0.1) << "CPU seconds while B was pending";

  // A is served throughout; a drained server would answer it
  // `shutting-down`.
  const std::string reply = a.roundtrip(run_request(2, "ssme", "ring 8"));
  EXPECT_TRUE(is_result(reply)) << reply;
  // B is accepted once an fd is free.  The receive timeout keeps the test
  // from hanging on a server that never accepts it.
  const timeval timeout{10, 0};
  ASSERT_EQ(::setsockopt(b->fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  ASSERT_TRUE(b->send_line(run_request(3, "ssme", "ring 8")));
  const std::optional<std::string> served = b->read_line();
  ASSERT_TRUE(served.has_value()) << "client B was never served";
  EXPECT_TRUE(is_result(*served)) << *served;
}

}  // namespace
}  // namespace specstab::serve
