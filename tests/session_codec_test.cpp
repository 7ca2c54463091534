// Tests for the canonical SessionSpec codec and the serve cache key:
// round-trips, field-order/subset tolerance, malformed-input rejection,
// and the pinned FNV values that freeze the canonical spelling — a
// change to the canonical text or the hash silently invalidates every
// serve result cache, so it must be a *deliberate* change that edits
// these constants.
#include "sim/protocol_registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace specstab {
namespace {

TEST(SessionCodecTest, DefaultSpecCanonicalSpelling) {
  const SessionSpec spec;
  EXPECT_EQ(spec.to_canonical_string(),
            "daemon=synchronous,engine=incremental,init=,max_steps=0,"
            "perturb=none,seed=42,threads=1");
}

TEST(SessionCodecTest, RoundTripsThroughParse) {
  SessionSpec spec;
  spec.daemon = "bernoulli-0.25";
  spec.init = "random";
  spec.seed = 987654321012345ull;
  spec.max_steps = 5000;
  spec.engine = EngineKind::kReference;
  spec.threads = 16;
  spec.perturb = "periodic:period=8;k=2;epochs=3";
  const std::string text = spec.to_canonical_string();
  const SessionSpec parsed = SessionSpec::parse(text);
  // Round-trip fixed point: parse(format(x)) formats identically.
  EXPECT_EQ(parsed.to_canonical_string(), text);
  EXPECT_EQ(parsed.daemon, spec.daemon);
  EXPECT_EQ(parsed.init, spec.init);
  EXPECT_EQ(parsed.seed, spec.seed);
  EXPECT_EQ(parsed.max_steps, spec.max_steps);
  EXPECT_EQ(parsed.engine, spec.engine);
  EXPECT_EQ(parsed.threads, spec.threads);
  // The fault text canonicalizes (start default spelled out).
  EXPECT_EQ(parsed.perturb, "periodic:period=8;k=2;epochs=3;start=8");
}

TEST(SessionCodecTest, ParseAcceptsAnyFieldOrderAndSubsets) {
  const SessionSpec shuffled = SessionSpec::parse(
      "threads=4,daemon=central-rr,seed=9,engine=vector");
  EXPECT_EQ(shuffled.daemon, "central-rr");
  EXPECT_EQ(shuffled.threads, 4u);
  EXPECT_EQ(shuffled.seed, 9u);
  EXPECT_EQ(shuffled.engine, EngineKind::kIncremental);
  // Unspecified fields keep their defaults.
  EXPECT_EQ(shuffled.init, "");
  EXPECT_EQ(shuffled.max_steps, 0);

  const SessionSpec empty = SessionSpec::parse("");
  EXPECT_EQ(empty.to_canonical_string(), SessionSpec{}.to_canonical_string());
}

TEST(SessionCodecTest, FoldedEngineNamesParseToTheProductionEngine) {
  // "vector" and "parallel" named engines the production engine absorbed;
  // old session strings keep parsing and format under the canonical name.
  for (const char* name : {"incremental", "vector", "parallel"}) {
    const SessionSpec spec =
        SessionSpec::parse(std::string("engine=") + name);
    EXPECT_EQ(spec.engine, EngineKind::kIncremental) << name;
    EXPECT_EQ(spec.to_canonical_string(), SessionSpec{}.to_canonical_string())
        << name;
  }
  EXPECT_EQ(SessionSpec::parse("engine=reference").engine,
            EngineKind::kReference);
}

TEST(SessionCodecTest, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)SessionSpec::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW((void)SessionSpec::parse("daemon"), std::invalid_argument);
  EXPECT_THROW((void)SessionSpec::parse("seed=-3"), std::invalid_argument);
  EXPECT_THROW((void)SessionSpec::parse("seed=12x"), std::invalid_argument);
  EXPECT_THROW((void)SessionSpec::parse("threads=0"), std::invalid_argument);
  EXPECT_THROW((void)SessionSpec::parse("threads=9999"),
               std::invalid_argument);
  EXPECT_THROW((void)SessionSpec::parse("engine=warp"), std::invalid_argument);
  // The storage layout is a property of the state type, not a session
  // field; the removed key is refused like any unknown one.
  EXPECT_THROW((void)SessionSpec::parse("layout=soa"), std::invalid_argument);
  EXPECT_THROW((void)SessionSpec::parse("max_steps=-1"),
               std::invalid_argument);
  EXPECT_THROW((void)SessionSpec::parse("perturb=sometimes"),
               std::invalid_argument);
}

TEST(SessionCodecTest, PerturbCanonicalizesThroughFaultSpec) {
  const SessionSpec spec = SessionSpec::parse("perturb=periodic");
  // Defaults spelled out — one spelling per schedule.
  EXPECT_EQ(spec.perturb, "periodic:period=64;k=1;epochs=4;start=64");
  const SessionSpec none = SessionSpec::parse("perturb=none");
  EXPECT_EQ(none.perturb, "none");
}

// The pinned values: regenerate ONLY on a deliberate canonical-format
// change (and accept that committed serve caches go stale).
TEST(SessionCodecTest, CacheKeyIsStablePinned) {
  EXPECT_EQ(session_cache_key("ssme", "ring 8", SessionSpec{}),
            7098568067532207565ull);
  // "engine=vector" canonicalizes to "engine=incremental".
  const SessionSpec spec = SessionSpec::parse(
      "seed=7,daemon=central-rr,engine=vector,"
      "perturb=periodic:period=8;k=2;epochs=3");
  EXPECT_EQ(session_cache_key("coloring", "torus 3 4", spec),
            11127894416822057579ull);
}

TEST(SessionCodecTest, CacheKeyDiscriminatesEveryComponent) {
  const SessionSpec base;
  const auto key = session_cache_key("ssme", "ring 8", base);
  EXPECT_NE(key, session_cache_key("unison", "ring 8", base));
  EXPECT_NE(key, session_cache_key("ssme", "ring 9", base));
  SessionSpec seeded = base;
  seeded.seed = 43;
  EXPECT_NE(key, session_cache_key("ssme", "ring 8", seeded));
  // The separator byte keeps component boundaries unambiguous: moving
  // a suffix between protocol and topology must change the key.
  EXPECT_NE(session_cache_key("ab", "c", base),
            session_cache_key("a", "bc", base));
}

TEST(SessionCodecTest, OutputShapeFlagsDoNotAffectIdentity) {
  SessionSpec traced;
  traced.record_trace = true;
  traced.meters_only = true;
  EXPECT_EQ(traced.to_canonical_string(), SessionSpec{}.to_canonical_string());
  EXPECT_EQ(session_cache_key("ssme", "ring 8", traced),
            session_cache_key("ssme", "ring 8", SessionSpec{}));
}

}  // namespace
}  // namespace specstab
