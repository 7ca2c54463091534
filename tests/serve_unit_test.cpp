// Unit tests for the serve building blocks that need no sockets: the
// JSON value/codec, the bounded work queue's backpressure and drain
// contracts, the byte-LRU result cache, the wire codec's request/reply
// rendering, and the integer option parser `specstab serve` shares with
// specstab_load.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/queue.hpp"
#include "serve/serve_cli.hpp"
#include "serve/wire.hpp"

namespace specstab::serve {
namespace {

// ----------------------------------------------------------------- json

TEST(ServeJsonTest, ParsesScalarsAndContainers) {
  EXPECT_EQ(JsonValue::parse("null").kind(), JsonValue::Kind::kNull);
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_EQ(JsonValue::parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(JsonValue::parse("2.5").as_double(), 2.5);
  // A lone zero may lead (JSON forbids only 0 followed by a digit).
  EXPECT_EQ(JsonValue::parse("0").as_int(), 0);
  EXPECT_EQ(JsonValue::parse("-0").as_int(), 0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("0.5").as_double(), 0.5);
  EXPECT_DOUBLE_EQ(JsonValue::parse("0e1").as_double(), 0.0);
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
        "[1] trailing", "{\"a\":1,}", "+5", "007", "-01",
        "{\"steps\": 0500}"}) {
    EXPECT_THROW((void)JsonValue::parse(bad), std::invalid_argument)
        << "input: " << bad;
  }
}

TEST(ServeJsonTest, IntegersBeyondInt64ParseAsDouble) {
  // The int64 bounds stay exact integers; one past either bound reads as
  // a double (a campaign run's uint64 seed does), which as_int() refuses.
  EXPECT_EQ(JsonValue::parse("9223372036854775807").as_int(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(JsonValue::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  for (const char* wide : {"9223372036854775808", "18446744073709551615",
                           "-9223372036854775809"}) {
    const JsonValue value = JsonValue::parse(wide);
    EXPECT_EQ(value.kind(), JsonValue::Kind::kDouble) << wide;
    EXPECT_THROW((void)value.as_int(), std::invalid_argument) << wide;
  }
  EXPECT_EQ(JsonValue::parse("[18446744073709551615]").as_array()[0]
                .as_double(),
            18446744073709551615.0);
  // A double's own range still bounds a number.
  EXPECT_THROW((void)JsonValue::parse(std::string(400, '9')),
               std::invalid_argument);
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
           // Beyond int64: valid JSON, but not an integer param.
           "{\"protocol\":\"ssme\",\"topology\":\"ring 8\","
           "\"seed\":18446744073709551615}",
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

// --------------------------------------------------------- trace lines

/// The tree renderers the direct trace renderers replaced, kept as their
/// oracle: each line is a JsonValue built member by member, then dumped.
std::string tree_trace_line(const JsonValue& id, const JsonValue& trace) {
  return "{\"id\":" + id.dump() + ",\"trace\":" + trace.dump() + "}\n";
}

std::string tree_init_line(const JsonValue& id,
                           const std::vector<std::string>& config) {
  JsonValue trace = JsonValue::object();
  trace.as_object().emplace_back("type", "init");
  JsonValue arr = JsonValue::array();
  for (const auto& s : config) arr.as_array().push_back(s);
  trace.as_object().emplace_back("config", std::move(arr));
  return tree_trace_line(id, trace);
}

std::string tree_delta_line(const JsonValue& id, StepIndex index,
                            const SessionResult::TraceDeltaRecord& rec) {
  JsonValue trace = JsonValue::object();
  auto& fields = trace.as_object();
  fields.emplace_back("type", "delta");
  fields.emplace_back("index", static_cast<std::int64_t>(index));
  fields.emplace_back("perturbation", rec.perturbation);
  JsonValue activated = JsonValue::array();
  for (const VertexId v : rec.activated) {
    activated.as_array().push_back(static_cast<std::int64_t>(v));
  }
  fields.emplace_back("activated", std::move(activated));
  JsonValue changes = JsonValue::array();
  for (const auto& change : rec.changes) {
    JsonValue c = JsonValue::object();
    c.as_object().emplace_back("v", static_cast<std::int64_t>(change.v));
    c.as_object().emplace_back("before", change.before);
    c.as_object().emplace_back("after", change.after);
    changes.as_array().push_back(std::move(c));
  }
  fields.emplace_back("changes", std::move(changes));
  return tree_trace_line(id, trace);
}

std::string tree_end_line(const JsonValue& id, StepIndex records) {
  JsonValue trace = JsonValue::object();
  trace.as_object().emplace_back("type", "end");
  trace.as_object().emplace_back("records", static_cast<std::int64_t>(records));
  return tree_trace_line(id, trace);
}

/// Every byte value, 0x00 through 0xff, in order.
std::string all_bytes() {
  std::string out;
  for (int c = 0; c < 256; ++c) out += static_cast<char>(c);
  return out;
}

/// One id of every JSON kind, the int64 extremes and strings that need
/// every kind of escape among them.
std::vector<JsonValue> ids_of_every_kind() {
  JsonValue object = JsonValue::object();
  object.as_object().emplace_back("k", JsonValue::array());
  object.as_object()[0].second.push_back(std::int64_t{-3});
  object.as_object()[0].second.push_back("x\"y");
  return {JsonValue(),
          JsonValue(true),
          JsonValue(false),
          JsonValue(std::numeric_limits<std::int64_t>::min()),
          JsonValue(std::numeric_limits<std::int64_t>::max()),
          JsonValue(0),
          JsonValue(-0.1),
          JsonValue(std::string("q\"b\\s\x01\x1f\n\r\t\x7f")),
          JsonValue(std::string("\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80")),
          JsonValue(all_bytes()),
          std::move(object)};
}

TEST(ServeJsonTest, AppendIntSpellsLikeToString) {
  for (const std::int64_t i :
       {std::numeric_limits<std::int64_t>::min(), std::int64_t{-10},
        std::int64_t{-1}, std::int64_t{0}, std::int64_t{9},
        std::int64_t{10}, std::numeric_limits<std::int64_t>::max()}) {
    std::string out = "x";
    append_json_int(out, i);
    std::string expected = "x";
    expected += std::to_string(i);
    EXPECT_EQ(out, expected);
  }
}

TEST(ServeJsonTest, DumpOfEveryByteIsPinned) {
  // Round trips cannot tell the minimal spelling from another valid
  // one; this literal can.  Named escapes for '"', '\\', \n, \r and
  // \t, lowercase \u00xx for the other bytes below 0x20, every other
  // byte raw (0x7f and the non-ASCII bytes included).
  EXPECT_EQ(
      JsonValue(all_bytes()).dump(),
      "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n"
      "\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014"
      "\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e"
      "\\u001f !\\\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ["
      "\\\\]^_`abcdefghijklmnopqrstuvwxyz{|}~\x7f\x80\x81\x82\x83\x84\x85\x86"
      "\x87\x88\x89\x8a\x8b\x8c\x8d\x8e\x8f\x90\x91\x92\x93\x94\x95\x96\x97\x98"
      "\x99\x9a\x9b\x9c\x9d\x9e\x9f\xa0\xa1\xa2\xa3\xa4\xa5\xa6\xa7\xa8\xa9\xaa"
      "\xab\xac\xad\xae\xaf\xb0\xb1\xb2\xb3\xb4\xb5\xb6\xb7\xb8\xb9\xba\xbb\xbc"
      "\xbd\xbe\xbf\xc0\xc1\xc2\xc3\xc4\xc5\xc6\xc7\xc8\xc9\xca\xcb\xcc\xcd\xce"
      "\xcf\xd0\xd1\xd2\xd3\xd4\xd5\xd6\xd7\xd8\xd9\xda\xdb\xdc\xdd\xde\xdf\xe0"
      "\xe1\xe2\xe3\xe4\xe5\xe6\xe7\xe8\xe9\xea\xeb\xec\xed\xee\xef\xf0\xf1\xf2"
      "\xf3\xf4\xf5\xf6\xf7\xf8\xf9\xfa\xfb\xfc\xfd\xfe\xff\"");
  EXPECT_EQ(JsonValue::parse(JsonValue(all_bytes()).dump()).as_string(),
            all_bytes());
}

TEST(ServeWireTest, DeltaLineIsPinned) {
  SessionResult::TraceDeltaRecord rec;
  rec.perturbation = true;
  rec.activated = {0, 2};
  rec.changes = {{0, "1", "2"}, {2, "a\"b", "c\\"}};
  EXPECT_EQ(render_trace_delta_line(JsonValue(7), 3, rec),
            "{\"id\":7,\"trace\":{\"type\":\"delta\",\"index\":3,"
            "\"perturbation\":true,\"activated\":[0,2],\"changes\":[{\"v\":0,"
            "\"before\":\"1\",\"after\":\"2\"},{\"v\":2,\"before\":"
            "\"a\\\"b\",\"after\":\"c\\\\\"}]}}\n");
}

TEST(ServeWireTest, TraceLinesMatchTheTreeRenderers) {
  const std::string bytes = all_bytes();
  // Eight changes whose before/after strings hold every byte value once,
  // plus one with empty strings.
  std::vector<SessionResult::TraceDeltaRecord::Change> changes;
  for (std::size_t k = 0; k < 8; ++k) {
    changes.push_back({static_cast<VertexId>(k * 1000),
                       bytes.substr(32 * k, 16),
                       bytes.substr(32 * k + 16, 16)});
  }
  changes.push_back({std::numeric_limits<VertexId>::max(), "", ""});
  std::vector<std::string> config;
  for (const auto& change : changes) config.push_back(change.before);

  std::vector<SessionResult::TraceDeltaRecord> records;
  for (const bool perturbation : {false, true}) {
    for (const bool with_activated : {false, true}) {
      for (const bool with_changes : {false, true}) {
        SessionResult::TraceDeltaRecord rec;
        rec.perturbation = perturbation;
        if (with_activated) {
          rec.activated = {0, 7, std::numeric_limits<VertexId>::max()};
        }
        if (with_changes) rec.changes = changes;
        records.push_back(std::move(rec));
      }
    }
  }
  const StepIndex extremes[] = {0, 5, std::numeric_limits<StepIndex>::max()};

  for (const JsonValue& id : ids_of_every_kind()) {
    const std::string at = "id " + id.dump();
    EXPECT_EQ(render_trace_init_line(id, config), tree_init_line(id, config))
        << at;
    EXPECT_EQ(render_trace_init_line(id, {}), tree_init_line(id, {})) << at;
    for (const StepIndex index : extremes) {
      for (const auto& rec : records) {
        EXPECT_EQ(render_trace_delta_line(id, index, rec),
                  tree_delta_line(id, index, rec))
            << at << " index " << index;
      }
      EXPECT_EQ(render_trace_end_line(id, index), tree_end_line(id, index))
          << at << " records " << index;
    }
  }
}

TEST(ServeWireTest, TraceAppendersAppendTheRenderedLines) {
  // The server batches a stream by appending lines to one buffer: each
  // appender adds exactly its render_* bytes after what is there.
  const JsonValue id("s");
  SessionResult::TraceDeltaRecord rec;
  rec.activated = {1};
  rec.changes = {{1, "x", "y"}};
  std::string batch = "head\n";
  append_trace_init_line(batch, id, {"a", "b"});
  append_trace_delta_line(batch, id, 0, rec);
  append_trace_end_line(batch, id, 1);
  EXPECT_EQ(batch, "head\n" + render_trace_init_line(id, {"a", "b"}) +
                       render_trace_delta_line(id, 0, rec) +
                       render_trace_end_line(id, 1));
}

// ----------------------------------------------------------------- argv

TEST(ServeCliTest, ParseU64TakesDigitsOnlyUpToMax) {
  // `specstab serve` and specstab_load read every integer option here.
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parse_u64("serve", "--port", "0", 65535), 0u);
  EXPECT_EQ(parse_u64("serve", "--port", "65535", 65535), 65535u);
  EXPECT_EQ(parse_u64("specstab_load", "--seed", "18446744073709551615",
                      kU64Max),
            kU64Max);
  const auto message = [](const char* text, std::uint64_t max) {
    try {
      (void)parse_u64("specstab_load", "--connections", text, max);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  // A sign, whitespace or any trailing byte is not an unsigned integer:
  // "-1" must not wrap around to four billion client threads.
  for (const char* bad : {"", "-1", "+5", " 5", "5 ", "4x", "0x10", "1e3",
                          "5.0"}) {
    EXPECT_EQ(message(bad, 4096),
              std::string("specstab_load: --connections needs a "
                          "non-negative integer, got '") +
                  bad + "'");
  }
  for (const char* wide : {"4097", "18446744073709551616"}) {
    EXPECT_EQ(message(wide, 4096),
              std::string("specstab_load: --connections out of range: ") +
                  wide);
  }
}

}  // namespace
}  // namespace specstab::serve
