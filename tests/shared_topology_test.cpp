// Concurrent first reads of shared topologies.  A Graph is immutable once
// constructed, so threads may share one from its first read on: the
// campaign runner hands each topology to all of its workers, serve hands
// a cached topology to concurrent sessions, and the engine's shards share
// the run's graph.  Each test here gives the first adjacency reads of a
// fresh graph to several threads at once.  Petersen and wheel graphs
// record a closed-form diameter, so nothing reads their adjacency before
// the threads do; a graph that wrote anything on a read would race here,
// which the ThreadSanitizer build reports.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace specstab {
namespace {

/// Everything a reader can ask of the adjacency, folded into one list.
std::vector<std::int64_t> read_all(const Graph& g) {
  std::vector<std::int64_t> seen;
  for (VertexId v = 0; v < g.n(); ++v) {
    seen.push_back(g.degree(v));
    for (const VertexId u : g.neighbors(v)) {
      seen.push_back(u);
      seen.push_back(g.has_edge(u, v) ? 1 : 0);
    }
  }
  for (const auto& [u, v] : g.edges()) {
    seen.push_back(u);
    seen.push_back(v);
  }
  seen.push_back(g.is_connected() ? 1 : 0);
  return seen;
}

TEST(SharedTopologyTest, FreshGraphsTakeConcurrentFirstReads) {
  constexpr int kReaders = 4;
  const auto check = [](const std::string& name,
                        const std::function<Graph()>& make) {
    const Graph g = make();
    std::vector<std::vector<std::int64_t>> seen(kReaders);
    std::latch start(kReaders);
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        start.arrive_and_wait();
        seen[static_cast<std::size_t>(r)] = read_all(g);
      });
    }
    for (auto& t : readers) t.join();
    EXPECT_EQ(g.edges().size(), static_cast<std::size_t>(g.m())) << name;
    const std::vector<std::int64_t> expected = read_all(g);
    for (int r = 0; r < kReaders; ++r) {
      EXPECT_EQ(seen[static_cast<std::size_t>(r)], expected)
          << name << " reader " << r;
    }
  };
  check("petersen", [] { return make_petersen(); });
  check("wheel 12", [] { return make_wheel(12); });
}

TEST(SharedTopologyTest, CampaignOnFreshClosedFormTopologiesIsThreadInvariant) {
  // run_scenarios() builds each topology once, before its workers start,
  // and the workers make the first adjacency reads.
  campaign::CampaignGrid grid;
  grid.protocols = {"ssme"};
  grid.topologies = {{"petersen", 10}, {"wheel", 10}};
  grid.daemons = {"synchronous", "central-rr", "central-random"};
  grid.inits = {"random"};
  grid.reps = 4;
  const auto items = campaign::expand_grid(grid);
  ASSERT_EQ(items.size(), 24u);
  const auto serial = campaign::run_scenarios(items, {.threads = 1});
  const auto parallel = campaign::run_scenarios(items, {.threads = 4});
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i], parallel.rows[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace specstab
