// Tests for the canonical session identity: SessionSpec's canonical
// text and the serve cache key built on it, canonical_session_string().
// The pinned strings freeze the canonical spelling — a change to it
// silently invalidates every serve result cache, so it must be a
// *deliberate* change that edits these literals.
#include "sim/protocol_registry.hpp"

#include <gtest/gtest.h>

#include <string>

#include "serve/json.hpp"
#include "serve/wire.hpp"

namespace specstab {
namespace {

TEST(SessionCodecTest, DefaultSpecCanonicalSpelling) {
  const SessionSpec spec;
  EXPECT_EQ(spec.to_canonical_string(),
            "daemon=synchronous,engine=incremental,init=,max_steps=0,"
            "perturb=none,seed=42,threads=1");
}

TEST(SessionCodecTest, PerturbCanonicalizesThroughFaultSpec) {
  SessionSpec spec;
  spec.perturb = "periodic";
  // Defaults spelled out — one spelling per schedule.
  EXPECT_NE(spec.to_canonical_string().find(
                ",perturb=periodic:period=64;k=1;epochs=4;start=64,"),
            std::string::npos)
      << spec.to_canonical_string();
  spec.perturb = "none";
  EXPECT_EQ(spec.to_canonical_string(), SessionSpec{}.to_canonical_string());
}

// The pinned values: regenerate ONLY on a deliberate canonical-format
// change (and accept that committed serve caches go stale).
TEST(SessionCodecTest, CacheKeyIsStablePinned) {
  const auto key = [](const char* params) {
    return serve::canonical_session_string(
        serve::decode_session_params(serve::JsonValue::parse(params)));
  };
  EXPECT_EQ(key("{\"protocol\":\"ssme\",\"topology\":\"ring 8\"}"),
            "ssme\x1fring 8\x1f"
            "daemon=synchronous,engine=incremental,init=,max_steps=0,"
            "perturb=none,seed=42,threads=1");
  // "engine":"vector" canonicalizes to engine=incremental, and the fault
  // text gains its default start.
  EXPECT_EQ(key("{\"protocol\":\"coloring\",\"topology\":\"torus 3 4\","
                "\"seed\":7,\"daemon\":\"central-rr\",\"engine\":\"vector\","
                "\"perturb\":\"periodic:period=8;k=2;epochs=3\"}"),
            "coloring\x1ftorus 3 4\x1f"
            "daemon=central-rr,engine=incremental,init=,max_steps=0,"
            "perturb=periodic:period=8;k=2;epochs=3;start=8,seed=7,"
            "threads=1");
}

TEST(SessionCodecTest, CacheKeyDiscriminatesEveryComponent) {
  const auto key = [](const std::string& protocol, const std::string& topology,
                      const SessionSpec& spec) {
    return serve::canonical_session_string({protocol, topology, spec});
  };
  const SessionSpec base;
  const std::string ring8 = key("ssme", "ring 8", base);
  EXPECT_NE(ring8, key("unison", "ring 8", base));
  EXPECT_NE(ring8, key("ssme", "ring 9", base));
  SessionSpec seeded = base;
  seeded.seed = 43;
  EXPECT_NE(ring8, key("ssme", "ring 8", seeded));
  // The separator byte keeps component boundaries unambiguous: moving
  // a suffix between protocol and topology must change the key.
  EXPECT_NE(key("ab", "c", base), key("a", "bc", base));
}

TEST(SessionCodecTest, OutputShapeFlagsDoNotAffectIdentity) {
  SessionSpec traced;
  traced.record_trace = true;
  traced.meters_only = true;
  EXPECT_EQ(traced.to_canonical_string(), SessionSpec{}.to_canonical_string());
}

}  // namespace
}  // namespace specstab
