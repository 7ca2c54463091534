// Unit tests for the serve building blocks that need no sockets: the
// JSON value/codec, the bounded work queue's backpressure and drain
// contracts, the byte-LRU result cache, and the wire codec's
// request/reply rendering.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/queue.hpp"
#include "serve/wire.hpp"

namespace specstab::serve {
namespace {

// ----------------------------------------------------------------- json

TEST(ServeJsonTest, ParsesScalarsAndContainers) {
  EXPECT_EQ(JsonValue::parse("null").kind(), JsonValue::Kind::kNull);
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_EQ(JsonValue::parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(JsonValue::parse("2.5").as_double(), 2.5);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
  const JsonValue arr = JsonValue::parse("[1, 2, 3]");
  ASSERT_EQ(arr.as_array().size(), 3u);
  EXPECT_EQ(arr.as_array()[2].as_int(), 3);
  const JsonValue obj = JsonValue::parse("{\"a\": 1, \"b\": [true]}");
  ASSERT_NE(obj.find("b"), nullptr);
  EXPECT_TRUE(obj.find("b")->as_array()[0].as_bool());
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(ServeJsonTest, DumpParsesBackAndPreservesKeyOrder) {
  const std::string text =
      "{\"z\":1,\"a\":[\"x\",null,false],\"m\":{\"k\":-7}}";
  const JsonValue value = JsonValue::parse(text);
  // Insertion-ordered objects: dump is byte-stable, not alphabetized.
  EXPECT_EQ(value.dump(), text);
  EXPECT_EQ(JsonValue::parse(value.dump()), value);
}

TEST(ServeJsonTest, StringEscapesRoundTrip) {
  const JsonValue value = JsonValue::parse("\"a\\n\\t\\\"b\\\\c\\u0041\"");
  EXPECT_EQ(value.as_string(), "a\n\t\"b\\cA");
  // Control characters re-escape on dump.
  EXPECT_EQ(JsonValue(std::string("x\ny")).dump(), "\"x\\ny\"");
  EXPECT_EQ(JsonValue::parse(JsonValue(std::string("x\x01y")).dump())
                .as_string(),
            std::string("x\x01y"));
}

TEST(ServeJsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\"}", "{\"a\":}", "nul", "1 2", "\"unterminated",
        "[1] trailing", "{\"a\":1,}", "+5"}) {
    EXPECT_THROW((void)JsonValue::parse(bad), std::invalid_argument)
        << "input: " << bad;
  }
}

TEST(ServeJsonTest, DepthLimitStopsRecursion) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_THROW((void)JsonValue::parse(deep), std::invalid_argument);
  EXPECT_NO_THROW((void)JsonValue::parse("[[[[[[[[[[1]]]]]]]]]]"));
}

TEST(ServeJsonTest, TypeMismatchThrows) {
  const JsonValue n = JsonValue::parse("3");
  EXPECT_THROW((void)n.as_string(), std::invalid_argument);
  EXPECT_THROW((void)n.as_array(), std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse("\"s\"").as_int(),
               std::invalid_argument);
}

// ---------------------------------------------------------------- queue

TEST(ServeQueueTest, TryPushRejectsWhenFullNeverBlocks) {
  BoundedWorkQueue queue(2);
  EXPECT_TRUE(queue.try_push([] {}));
  EXPECT_TRUE(queue.try_push([] {}));
  EXPECT_FALSE(queue.try_push([] {}));  // full -> explicit busy, no block
  EXPECT_EQ(queue.depth(), 2u);
  (void)queue.pop();
  EXPECT_TRUE(queue.try_push([] {}));
}

TEST(ServeQueueTest, CloseDrainsQueuedJobsThenReturnsNullopt) {
  BoundedWorkQueue queue(8);
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.try_push([&ran] { ran.fetch_add(1); }));
  }
  queue.close();
  EXPECT_FALSE(queue.try_push([] {}));  // sealed to producers
  // Consumers still drain everything accepted before the close.
  while (auto job = queue.pop()) (*job)();
  EXPECT_EQ(ran.load(), 5);
}

TEST(ServeQueueTest, PopBlocksUntilPushOrClose) {
  BoundedWorkQueue queue(4);
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    auto job = queue.pop();
    got.store(job.has_value());
  });
  ASSERT_TRUE(queue.try_push([] {}));
  consumer.join();
  EXPECT_TRUE(got.load());
  std::thread waiter([&] {
    auto job = queue.pop();
    got.store(job.has_value());
  });
  queue.close();
  waiter.join();
  EXPECT_FALSE(got.load());  // closed and empty -> worker exit signal
}

// ---------------------------------------------------------------- cache

TEST(ServeCacheTest, HitReturnsIdenticalBytesAndCounts) {
  ResultCache cache(1 << 20);
  EXPECT_FALSE(cache.lookup("k").has_value());
  cache.insert("k", "payload-bytes");
  const auto hit = cache.lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-bytes");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(ServeCacheTest, EvictsLeastRecentlyUsedByBytes) {
  // Each entry costs key + payload + 96 overhead = ~200 bytes; budget
  // fits two.
  ResultCache cache(450);
  cache.insert("a", std::string(100, 'A'));
  cache.insert("b", std::string(100, 'B'));
  ASSERT_TRUE(cache.lookup("a").has_value());  // refresh a: b becomes LRU
  cache.insert("c", std::string(100, 'C'));    // evicts b
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.resident_bytes, stats.max_bytes);
}

TEST(ServeCacheTest, OversizedPayloadSkippedNotCached) {
  ResultCache cache(128);
  cache.insert("big", std::string(4096, 'X'));
  EXPECT_FALSE(cache.lookup("big").has_value());
  EXPECT_EQ(cache.stats().oversized_skips, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServeCacheTest, ZeroBudgetDisablesCaching) {
  ResultCache cache(0);
  cache.insert("k", "v");
  EXPECT_FALSE(cache.lookup("k").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServeCacheTest, DuplicateInsertRefreshesRecencyOnly) {
  ResultCache cache(450);
  cache.insert("a", std::string(100, 'A'));
  cache.insert("b", std::string(100, 'B'));
  cache.insert("a", std::string(100, 'A'));  // refresh, not re-insert
  EXPECT_EQ(cache.stats().insertions, 2u);
  cache.insert("c", std::string(100, 'C'));  // evicts b (LRU after refresh)
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("a").has_value());
}

// ----------------------------------------------------------------- wire

TEST(ServeWireTest, ParseRequestExtractsIdMethodParams) {
  const Request req = parse_request(
      "{\"id\": 7, \"method\": \"run\", \"params\": {\"protocol\": "
      "\"ssme\"}}");
  EXPECT_EQ(req.id.as_int(), 7);
  EXPECT_EQ(req.method, "run");
  ASSERT_NE(req.params.find("protocol"), nullptr);
  // No id -> null id echoed.
  EXPECT_EQ(parse_request("{\"method\": \"list\"}").id.kind(),
            JsonValue::Kind::kNull);
}

TEST(ServeWireTest, ParseRequestErrorsCarryCodeAndId) {
  try {
    (void)parse_request("{\"id\": 3, \"method\": 9}");
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), kErrInvalid);
    EXPECT_EQ(e.id().as_int(), 3);  // id recovered before the failure
  }
  try {
    (void)parse_request("garbage");
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), kErrParse);
    EXPECT_EQ(e.id().kind(), JsonValue::Kind::kNull);
  }
}

TEST(ServeWireTest, DecodeSessionParamsValidatesTypesAndKeys) {
  const JsonValue params = JsonValue::parse(
      "{\"protocol\":\"ssme\",\"topology\":\" ring\\t8 \",\"seed\":5,"
      "\"threads\":2,\"engine\":\"vector\"}");
  const SessionRequest req = decode_session_params(params);
  EXPECT_EQ(req.protocol, "ssme");
  EXPECT_EQ(req.topology, "ring 8");  // canonicalized spelling
  EXPECT_EQ(req.spec.seed, 5u);
  EXPECT_EQ(req.spec.threads, 2u);
  // "vector" and "parallel" are synonyms of the production engine and
  // share its canonical spelling (and so its cache entries).
  EXPECT_EQ(req.spec.engine, EngineKind::kIncremental);
  EXPECT_NE(req.spec.to_canonical_string().find(",engine=incremental,"),
            std::string::npos);
  const SessionRequest par = decode_session_params(JsonValue::parse(
      "{\"protocol\":\"ssme\",\"topology\":\"ring 8\","
      "\"engine\":\"parallel\"}"));
  EXPECT_EQ(par.spec.engine, EngineKind::kIncremental);
  EXPECT_THROW((void)decode_session_params(JsonValue::parse(
                   "{\"protocol\":\"ssme\",\"topology\":\"ring 8\","
                   "\"engine\":\"warp\"}")),
               RpcError);

  for (const char* bad : {
           "{}",                                          // protocol missing
           "{\"protocol\":\"ssme\"}",                     // topology missing
           "{\"protocol\":5,\"topology\":\"ring 8\"}",    // wrong type
           "{\"protocol\":\"ssme\",\"topology\":\"ring 8\",\"seed\":\"x\"}",
           "{\"protocol\":\"ssme\",\"topology\":\"ring 8\",\"threads\":0}",
           "{\"protocol\":\"ssme\",\"topology\":\"ring 8\",\"bogus\":1}",
           "{\"protocol\":\"ssme\",\"topology\":\"  \"}",  // empty topology
           "{\"protocol\":\"ssme\",\"topology\":\"ring 8\",\"seed\":-1}",
       }) {
    EXPECT_THROW((void)decode_session_params(JsonValue::parse(bad)), RpcError)
        << "params: " << bad;
  }

  // The storage layout is a property of the state type, not a param; the
  // removed key is refused by name.
  try {
    (void)decode_session_params(JsonValue::parse(
        "{\"protocol\":\"ssme\",\"topology\":\"ring 8\",\"layout\":\"aos\"}"));
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), kErrInvalid);
    EXPECT_NE(std::string(e.what()).find("'layout'"), std::string::npos)
        << e.what();
  }
}

TEST(ServeWireTest, ReplyRenderingIsLineFramedAndIdEchoing) {
  JsonValue result = JsonValue::object();
  result.as_object().emplace_back("ok", true);
  const std::string line = render_result_line(JsonValue("abc"), result);
  EXPECT_EQ(line, "{\"id\":\"abc\",\"result\":{\"ok\":true}}\n");
  // Raw paste renders byte-identically to the parsed path.
  EXPECT_EQ(render_result_line_raw(JsonValue("abc"), result.dump()), line);
  const std::string err =
      render_error_line(JsonValue(), kErrBusy, "queue full");
  EXPECT_EQ(err,
            "{\"id\":null,\"error\":{\"code\":\"busy\",\"message\":\"queue "
            "full\"}}\n");
}

}  // namespace
}  // namespace specstab::serve
