// Protocol-registry coverage: metadata of every registered protocol, the
// type-erased session API against an independently hand-rolled typed
// pipeline (byte-identical final configurations and meters), engine
// agreement through the erased boundary, init validation, and the
// delta-trace exposure of the session API.
#include "sim/protocol_registry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "sim/any_protocol.hpp"

namespace specstab {
namespace {

/// Independently re-rolled typed pipeline: the same building blocks the
/// traits expose, but driven through run_with_engine() directly — no
/// std::function, no SessionResult flattening.  The erased path must
/// reproduce this bit for bit.
template <class Traits>
struct DirectRun {
  RunResult<typename Traits::Protocol::State> res;
  std::int64_t closure_violations = 0;
  std::vector<std::string> printed_final;
};

template <class Traits>
DirectRun<Traits> direct_run(const Graph& g, VertexId diam,
                             const SessionSpec& spec) {
  const auto proto = Traits::make(g, diam);
  const auto daemon = make_daemon(spec.daemon, spec.seed);
  const std::string init =
      spec.init.empty() ? Traits::info().inits.front() : spec.init;
  RunOptions opt;
  opt.engine = spec.engine;
  opt.max_steps =
      spec.max_steps > 0 ? spec.max_steps : Traits::step_cap(g, diam);
  if (Traits::kStopAtConvergence) opt.steps_after_convergence = 0;
  ClosureCounting checker(Traits::make_checker(g, proto));
  DirectRun<Traits> out;
  out.res = run_with_engine(g, proto, *daemon,
                            Traits::make_init(g, proto, init, spec.seed), opt,
                            checker);
  out.closure_violations = checker.violations();
  for (const auto& s : out.res.final_config) {
    out.printed_final.push_back(Traits::print_state(s));
  }
  return out;
}

/// Topologies a protocol is exercised on: rings always, plus a path and
/// a random graph for protocols not confined to rings.
std::vector<Graph> topologies_for(const ProtocolInfo& info) {
  std::vector<Graph> out;
  out.push_back(make_ring(8));
  if (!info.ring_only) {
    out.push_back(make_path(7));
    out.push_back(make_random_connected(10, 0.3, 21));
  }
  return out;
}

TEST(ProtocolRegistryTest, BuiltinsMatchTheTraitsList) {
  // The registry registers exactly the protocols the traits visitor
  // enumerates (same names, same order) — the two lists cannot drift.
  std::vector<std::string> from_traits;
  for_each_builtin_protocol([&](auto tag) {
    from_traits.push_back(decltype(tag)::Traits::info().name);
  });
  EXPECT_EQ(ProtocolRegistry::instance().names(), from_traits);
  EXPECT_EQ(from_traits.size(), 9u);
}

TEST(ProtocolRegistryTest, EveryEntryHasUsableMetadata) {
  const Graph g = make_ring(8);
  const VertexId diam = diameter(g);
  for (const auto& entry : ProtocolRegistry::instance().entries()) {
    EXPECT_FALSE(entry.info.description.empty()) << entry.info.name;
    EXPECT_FALSE(entry.info.state_model.empty()) << entry.info.name;
    ASSERT_FALSE(entry.info.inits.empty()) << entry.info.name;
    for (const auto& init : entry.info.inits) {
      EXPECT_TRUE(entry.supports_init(init)) << entry.info.name;
    }
    EXPECT_FALSE(entry.supports_init("no-such-init")) << entry.info.name;
    EXPECT_GT(entry.default_step_cap(g, diam), 0) << entry.info.name;
  }
  EXPECT_TRUE(
      ProtocolRegistry::instance().at("dijkstra-ring").info.ring_only);
  EXPECT_FALSE(ProtocolRegistry::instance().at("ssme").info.ring_only);
}

TEST(ProtocolRegistryTest, LookupErrors) {
  EXPECT_EQ(ProtocolRegistry::instance().find("nope"), nullptr);
  try {
    (void)ProtocolRegistry::instance().at("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error names the known protocols so CLI users can self-serve.
    EXPECT_NE(std::string(e.what()).find("dijkstra-ring"),
              std::string::npos);
  }
}

TEST(ProtocolRegistryTest, RejectsDuplicateAndMalformedEntries) {
  auto& registry = ProtocolRegistry::instance();
  EXPECT_THROW(registry.add(make_protocol_entry<SsmeGamma1Traits>()),
               std::invalid_argument);
  EXPECT_THROW(registry.add(ProtocolEntry{}), std::invalid_argument);
}

TEST(ProtocolRegistryTest, ErasedPathMatchesDirectTemplatedPath) {
  // For every registered protocol, every init it supports, and a daemon
  // mix, the erased session must reproduce the hand-rolled typed
  // pipeline byte for byte: printed final configuration and the whole
  // metering surface.
  for_each_builtin_protocol([&](auto tag) {
    using Traits = typename decltype(tag)::Traits;
    const ProtocolInfo info = Traits::info();
    const ProtocolEntry& entry = ProtocolRegistry::instance().at(info.name);
    for (const auto& g : topologies_for(info)) {
      const VertexId diam = diameter(g);
      for (const std::string daemon :
           {"synchronous", "central-rr", "bernoulli-0.5"}) {
        for (const auto& init : info.inits) {
          SessionSpec spec;
          spec.daemon = daemon;
          spec.init = init;
          spec.seed = 0x5eed + g.n();
          const SessionResult erased = entry.run_on(g, diam, spec);
          const auto direct = direct_run<Traits>(g, diam, spec);
          const std::string ctx = info.name + "/" + daemon + "/" + init +
                                  "/n=" + std::to_string(g.n());
          EXPECT_EQ(erased.final_state, direct.printed_final) << ctx;
          EXPECT_EQ(erased.steps, direct.res.steps) << ctx;
          EXPECT_EQ(erased.moves, direct.res.moves) << ctx;
          EXPECT_EQ(erased.rounds, direct.res.rounds) << ctx;
          EXPECT_EQ(erased.terminated, direct.res.terminated) << ctx;
          EXPECT_EQ(erased.hit_step_cap, direct.res.hit_step_cap) << ctx;
          EXPECT_EQ(erased.converged, direct.res.converged()) << ctx;
          if (direct.res.converged()) {
            EXPECT_EQ(erased.convergence_steps,
                      direct.res.convergence_steps())
                << ctx;
          }
          EXPECT_EQ(erased.moves_to_convergence,
                    direct.res.moves_to_convergence)
              << ctx;
          EXPECT_EQ(erased.rounds_to_convergence,
                    direct.res.rounds_to_convergence)
              << ctx;
          EXPECT_EQ(erased.closure_violations, direct.closure_violations)
              << ctx;
        }
      }
    }
  });
}

TEST(ProtocolRegistryTest, EnginesAgreeThroughTheErasedBoundary) {
  // Incremental vs reference, addressed purely by name: meters and final
  // digests must match for every protocol.
  for (const auto& name : ProtocolRegistry::instance().names()) {
    const ProtocolEntry& entry = ProtocolRegistry::instance().at(name);
    const Graph g = make_ring(9);
    const VertexId diam = diameter(g);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SessionSpec spec;
      spec.daemon = "random-subset";
      spec.seed = seed;
      spec.engine = EngineKind::kIncremental;
      const SessionResult inc = entry.run_on(g, diam, spec);
      spec.engine = EngineKind::kReference;
      const SessionResult ref = entry.run_on(g, diam, spec);
      const std::string ctx = name + "/seed=" + std::to_string(seed);
      EXPECT_EQ(inc.final_digest, ref.final_digest) << ctx;
      EXPECT_EQ(inc.final_state, ref.final_state) << ctx;
      EXPECT_EQ(inc.steps, ref.steps) << ctx;
      EXPECT_EQ(inc.moves, ref.moves) << ctx;
      EXPECT_EQ(inc.rounds, ref.rounds) << ctx;
      EXPECT_EQ(inc.converged, ref.converged) << ctx;
      EXPECT_EQ(inc.closure_violations, ref.closure_violations) << ctx;
    }
  }
}

TEST(ProtocolRegistryTest, UnsupportedInitThrows) {
  const ProtocolEntry& entry =
      ProtocolRegistry::instance().at("dijkstra-ring");
  SessionSpec spec;
  spec.init = "two-gradient";
  EXPECT_THROW((void)entry.run(make_ring(6), spec), std::invalid_argument);
}

TEST(ProtocolRegistryTest, RingOnlyProtocolsRejectNonRingsAtTheBoundary) {
  // The guard lives in the session itself, so every caller — CLI,
  // campaign, library users — is protected from silently mislabeled
  // results (Dijkstra's predecessor arithmetic off a ring is garbage).
  const ProtocolEntry& entry =
      ProtocolRegistry::instance().at("dijkstra-ring");
  EXPECT_THROW((void)entry.run(make_path(6), SessionSpec{}),
               std::invalid_argument);
  EXPECT_NO_THROW((void)entry.run(make_ring(6), SessionSpec{}));
  EXPECT_TRUE(is_ring_topology(make_ring(5)));
  EXPECT_FALSE(is_ring_topology(make_path(5)));
  EXPECT_FALSE(is_ring_topology(make_star(5)));
  // A cycle over *permuted* ids is structurally a ring but its graph
  // adjacency does not match the index-arithmetic predecessors ring
  // protocols use — it must be rejected, or the production engine's
  // dirty-set locality would silently go stale.
  const Graph permuted(5, {{0, 2}, {2, 4}, {4, 1}, {1, 3}, {3, 0}});
  EXPECT_FALSE(is_ring_topology(permuted));
}

TEST(ProtocolRegistryTest, MetersOnlySkipsRenderedOutputs) {
  const ProtocolEntry& entry = ProtocolRegistry::instance().at("ssme");
  const Graph g = make_ring(8);
  SessionSpec spec;
  spec.seed = 9;
  spec.meters_only = true;
  const SessionResult lean = entry.run(g, spec);
  EXPECT_TRUE(lean.final_state.empty());
  EXPECT_TRUE(lean.notes.empty());
  spec.meters_only = false;
  const SessionResult full = entry.run(g, spec);
  EXPECT_FALSE(full.final_state.empty());
  // The meters are identical either way.
  EXPECT_EQ(lean.steps, full.steps);
  EXPECT_EQ(lean.moves, full.moves);
  EXPECT_EQ(lean.converged, full.converged);
}

TEST(ProtocolRegistryTest, SessionExposesReconstructibleDeltaTrace) {
  const ProtocolEntry& entry = ProtocolRegistry::instance().at("ssme");
  const Graph g = make_ring(8);
  SessionSpec spec;
  spec.seed = 11;
  spec.record_trace = true;
  const SessionResult res = entry.run(g, spec);
  ASSERT_TRUE(res.trace_config);
  ASSERT_EQ(res.trace_length, res.steps + 1);
  // gamma_0 differs from the final configuration (the run moved), and
  // the last reconstructed configuration is exactly the final state.
  EXPECT_EQ(res.trace_config(res.trace_length - 1), res.final_state);
  EXPECT_EQ(res.trace_config(0).size(), static_cast<std::size_t>(g.n()));
  ASSERT_GT(res.steps, 0);
  EXPECT_NE(res.trace_config(0), res.final_state);

  // The streaming materializer agrees with per-index reconstruction.
  ASSERT_TRUE(res.trace_materialize);
  const auto all = res.trace_materialize();
  ASSERT_EQ(all.size(), static_cast<std::size_t>(res.trace_length));
  for (StepIndex i = 0; i < res.trace_length; ++i) {
    ASSERT_EQ(all[static_cast<std::size_t>(i)], res.trace_config(i))
        << "gamma_" << i;
  }

  // Without record_trace the session carries no trace machinery.
  spec.record_trace = false;
  const SessionResult bare = entry.run(g, spec);
  EXPECT_EQ(bare.trace_length, 0);
  EXPECT_FALSE(bare.trace_config);
  EXPECT_FALSE(bare.trace_materialize);
}

TEST(ProtocolRegistryTest, SessionDigestDiscriminatesFinalStates) {
  // Unbounded-unison final clocks retain the (seed-dependent) magnitude
  // of the initial values — the digest must see that; identical runs
  // must collide.
  const ProtocolEntry& entry =
      ProtocolRegistry::instance().at("unbounded-unison");
  const Graph g = make_ring(8);
  SessionSpec spec;
  spec.daemon = "central-rr";
  spec.seed = 1;
  const SessionResult a = entry.run(g, spec);
  const SessionResult b = entry.run(g, spec);
  EXPECT_EQ(a.final_digest, b.final_digest);
  EXPECT_EQ(a.final_state, b.final_state);
  spec.seed = 2;
  const SessionResult c = entry.run(g, spec);
  EXPECT_NE(a.final_state, c.final_state);
  EXPECT_NE(a.final_digest, c.final_digest);
}

}  // namespace
}  // namespace specstab
