// The daemon scratch API (select_into + ActionBuffer), introduced with
// the zero-allocation hot path:
//
//   - reset()-then-rerun reproducibility: every daemon driven through
//     select_into over the same enabled-set sequence replays the same
//     schedule after reset();
//   - geometric-skip Bernoulli sampling matches the naive per-vertex
//     coin-flip sampler distributionally (marginals and subset sizes);
//   - allocation guards: a warmed-up ActionBuffer makes select_into
//     allocation-free for every concrete daemon, and the incremental
//     engine's whole action loop performs a step-count-independent
//     number of allocations (i.e. zero per action in steady state);
//   - a view over the engine's mask words (EnabledSet::view()) chooses
//     exactly what the binary-search view over a sorted vector chooses,
//     for every daemon, whether or not the set's sorted cache is built.
//
// The allocation guards replace the global operator new/delete of this
// test binary with counting versions; keep gtest assertions outside the
// counted regions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <random>
#include <vector>

#include "core/adversarial_configs.hpp"
#include "core/incremental_legitimacy.hpp"
#include "core/ssme.hpp"
#include "graph/generators.hpp"
#include "sim/daemon.hpp"
#include "sim/enabled_set.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_engine.hpp"

namespace {

std::atomic<long long> g_allocations{0};

}  // namespace

// Counting global allocator: every path through new/new[] bumps the
// counter.  Deletes deliberately uncounted — the guards only assert that
// nothing is *acquired* in the measured regions.  The deletes stay out
// of line: inlined, GCC would see std::free() take memory from operator
// new and warn (-Wmismatched-new-delete), though the operators here
// pair malloc with free.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}

namespace specstab {
namespace {

/// Deterministic pseudo-random sequence of non-empty sorted enabled sets
/// over [0, n), shared by the reproducibility drives.
std::vector<std::vector<VertexId>> enabled_sequence(VertexId n,
                                                    std::size_t length,
                                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(0.6);
  std::uniform_int_distribution<VertexId> pick(0, n - 1);
  std::vector<std::vector<VertexId>> out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    std::vector<VertexId> enabled;
    for (VertexId v = 0; v < n; ++v) {
      if (coin(rng)) enabled.push_back(v);
    }
    if (enabled.empty()) enabled.push_back(pick(rng));
    out.push_back(std::move(enabled));
  }
  return out;
}

/// Drives `daemon` through the sequence with one shared buffer and
/// returns the chosen activation sets.
std::vector<std::vector<VertexId>> drive(
    Daemon& daemon, const Graph& g,
    const std::vector<std::vector<VertexId>>& sequence) {
  ActionBuffer buf;
  std::vector<std::vector<VertexId>> out;
  out.reserve(sequence.size());
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    daemon.select_into(g, EnabledView(sequence[i]),
                       static_cast<StepIndex>(i), buf);
    out.push_back(buf.active);
  }
  return out;
}

std::vector<std::unique_ptr<Daemon>> all_daemons(std::uint64_t seed) {
  std::vector<std::unique_ptr<Daemon>> out;
  for (const auto& name :
       {"synchronous", "central-rr", "central-random", "central-min-id",
        "central-max-id", "random-subset", "locally-central",
        "bernoulli-0.37", "bernoulli-1.0"}) {
    out.push_back(make_daemon(name, seed));
  }
  out.push_back(std::make_unique<KFairCentralDaemon>(3, seed));
  out.push_back(std::make_unique<StarvationDaemon>(2));
  out.push_back(std::make_unique<PriorityCentralDaemon>(
      std::vector<VertexId>{5, 3, 1}));
  out.push_back(std::make_unique<ScheduledDaemon>(
      std::vector<std::vector<VertexId>>{{1, 2}, {4}, {0, 3}}));
  return out;
}

TEST(DaemonScratchTest, ResetThenRerunReplaysEveryDaemon) {
  const Graph g = make_ring(12);
  const auto sequence = enabled_sequence(g.n(), 300, 99);
  for (auto& daemon : all_daemons(7)) {
    const auto first = drive(*daemon, g, sequence);
    daemon->reset();
    const auto second = drive(*daemon, g, sequence);
    EXPECT_EQ(first, second) << daemon->name();
  }
}

TEST(DaemonScratchTest, SelectionsAreSortedNonEmptySubsets) {
  const Graph g = make_ring(12);
  const auto sequence = enabled_sequence(g.n(), 300, 17);
  for (auto& daemon : all_daemons(23)) {
    const auto chosen = drive(*daemon, g, sequence);
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      ASSERT_FALSE(chosen[i].empty()) << daemon->name() << " step " << i;
      EXPECT_TRUE(std::is_sorted(chosen[i].begin(), chosen[i].end()))
          << daemon->name() << " step " << i;
      for (VertexId v : chosen[i]) {
        EXPECT_TRUE(std::binary_search(sequence[i].begin(), sequence[i].end(),
                                       v))
            << daemon->name() << " step " << i;
      }
    }
  }
}

TEST(DaemonScratchTest, BitmapAndBinarySearchViewsAgree) {
  // The mask words are a membership bitmap: a view over them answers
  // contains() from one bit and lists the set only for daemons that
  // index it.  Every daemon must
  // choose from it exactly what it chooses from the sorted vector.  The
  // set is rebuilt from words each step (as after a dense step), so its
  // cache starts invalid and the first daemon that indexes it builds it.
  const Graph g = make_ring(150);
  const auto sequence = enabled_sequence(g.n(), 400, 5);
  auto word_daemons = all_daemons(29);
  auto plain_daemons = all_daemons(29);
  word_daemons.push_back(std::make_unique<CentralRoundRobinDaemon>());
  plain_daemons.push_back(std::make_unique<CentralRoundRobinDaemon>());
  ActionBuffer a, b;
  EnabledSet set;
  set.reset(g.n());
  std::vector<std::uint8_t> verdicts(
      (static_cast<std::size_t>(g.n()) + 63) / 64 * 64, 0);
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    std::fill(verdicts.begin(), verdicts.end(), 0);
    for (VertexId v : sequence[i]) verdicts[static_cast<std::size_t>(v)] = 1;
    set.end_fill(set.fill_words(0, g.n(), verdicts.data()));
    const EnabledView word_view = set.view();
    const EnabledView plain_view(sequence[i]);
    const auto step = static_cast<StepIndex>(i);
    for (std::size_t d = 0; d < word_daemons.size(); ++d) {
      word_daemons[d]->select_into(g, word_view, step, a);
      plain_daemons[d]->select_into(g, plain_view, step, b);
      ASSERT_EQ(a.active, b.active)
          << word_daemons[d]->name() << " step " << i;
    }
  }
}

// --- Geometric-skip Bernoulli vs the naive per-vertex sampler ----------

/// The pre-scratch-API sampler: one coin per enabled vertex, uniform
/// fallback when the sample is empty.
std::vector<VertexId> naive_bernoulli(const std::vector<VertexId>& enabled,
                                      double p, std::mt19937_64& rng) {
  std::bernoulli_distribution coin(p);
  std::vector<VertexId> chosen;
  for (VertexId v : enabled) {
    if (coin(rng)) chosen.push_back(v);
  }
  if (chosen.empty()) {
    std::uniform_int_distribution<std::size_t> pick(0, enabled.size() - 1);
    chosen.push_back(enabled[pick(rng)]);
  }
  return chosen;
}

TEST(DaemonScratchTest, GeometricSkipMatchesNaiveSamplerDistribution) {
  const Graph g = make_ring(16);
  std::vector<VertexId> enabled(static_cast<std::size_t>(g.n()));
  for (VertexId v = 0; v < g.n(); ++v) {
    enabled[static_cast<std::size_t>(v)] = v;
  }
  const std::size_t trials = 40000;
  for (const double p : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    DistributedBernoulliDaemon daemon(p, 1234);
    ActionBuffer buf;
    std::vector<std::size_t> geo_hits(enabled.size(), 0);
    double geo_size = 0.0;
    for (std::size_t t = 0; t < trials; ++t) {
      daemon.select_into(g, EnabledView(enabled),
                         static_cast<StepIndex>(t), buf);
      geo_size += static_cast<double>(buf.active.size());
      for (VertexId v : buf.active) ++geo_hits[static_cast<std::size_t>(v)];
    }

    std::mt19937_64 naive_rng(5678);
    std::vector<std::size_t> naive_hits(enabled.size(), 0);
    double naive_size = 0.0;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto chosen = naive_bernoulli(enabled, p, naive_rng);
      naive_size += static_cast<double>(chosen.size());
      for (VertexId v : chosen) ++naive_hits[static_cast<std::size_t>(v)];
    }

    // Marginal activation frequency per vertex: both samplers estimate
    // the same Bernoulli(p) marginal (plus the tiny empty-set fallback
    // mass); 0.015 is ~4 sigma at 40k trials.
    const auto n = static_cast<double>(trials);
    for (std::size_t v = 0; v < enabled.size(); ++v) {
      EXPECT_NEAR(static_cast<double>(geo_hits[v]) / n,
                  static_cast<double>(naive_hits[v]) / n, 0.015)
          << "p=" << p << " vertex " << v;
    }
    // Mean activation-set size.
    EXPECT_NEAR(geo_size / n, naive_size / n, 16 * 0.015) << "p=" << p;
  }
}

TEST(DaemonScratchTest, GeometricSkipNeverReturnsEmpty) {
  const Graph g = make_ring(8);
  const std::vector<VertexId> enabled = {1, 4, 6};
  DistributedBernoulliDaemon daemon(0.02, 9);
  ActionBuffer buf;
  for (StepIndex i = 0; i < 3000; ++i) {
    daemon.select_into(g, EnabledView(enabled), i, buf);
    ASSERT_FALSE(buf.active.empty());
  }
}

// --- Allocation guards -------------------------------------------------

TEST(DaemonScratchTest, WarmedSelectIntoIsAllocationFree) {
  const Graph g = make_ring(24);
  const auto sequence = enabled_sequence(g.n(), 260, 31);
  std::vector<VertexId> full(static_cast<std::size_t>(g.n()));
  std::iota(full.begin(), full.end(), 0);
  for (auto& daemon : all_daemons(11)) {
    ActionBuffer buf;
    // Warm-up: a few mixed calls size the lazy per-daemon state (and
    // exhaust replayed schedules), then one full-set call drives the
    // output buffer to its high-water capacity (vector::assign grows to
    // exact size, so capacity would otherwise creep up with each new
    // maximum enabled set).
    for (std::size_t i = 0; i < 10; ++i) {
      daemon->select_into(g, EnabledView(sequence[i]),
                          static_cast<StepIndex>(i), buf);
    }
    daemon->select_into(g, EnabledView(full), 10, buf);
    const long long before = g_allocations.load(std::memory_order_relaxed);
    for (std::size_t i = 10; i < sequence.size(); ++i) {
      daemon->select_into(g, EnabledView(sequence[i]),
                          static_cast<StepIndex>(i), buf);
    }
    const long long after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0) << daemon->name();
  }
}

/// Allocations of one production-engine run at the given step budget and
/// thread count.
template <class MakeDaemon>
long long run_allocations(const Graph& g, const SsmeProtocol& proto,
                          MakeDaemon make, StepIndex max_steps,
                          unsigned threads = 1) {
  auto daemon = make();
  auto checker = make_gamma1_checker(proto);
  const auto init = random_config(g, proto.clock(), 77);
  RunOptions opt;
  opt.max_steps = max_steps;
  opt.threads = threads;
  const long long before = g_allocations.load(std::memory_order_relaxed);
  const auto res =
      run_execution_parallel(g, proto, *daemon, init, opt, checker);
  const long long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GE(res.steps, max_steps);  // SSME never terminates
  return after - before;
}

TEST(DaemonScratchTest, ActionLoopAllocationCountIsStepIndependent) {
  // The zero-allocation claim, measured: growing the step budget 40x may
  // not grow the allocation count (all per-action scratch is reused;
  // only setup and a bounded number of capacity doublings allocate).
  // The synchronous leg also runs at two threads, where its dense steps
  // go through the shard pool.
  const Graph g = make_ring(32);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  const std::uint64_t seed = 3;
  for (const auto& name :
       {"central-rr", "synchronous", "bernoulli-0.5", "locally-central"}) {
    const auto make = [&] { return make_daemon(name, seed); };
    const long long short_run = run_allocations(g, proto, make, 50);
    const long long long_run = run_allocations(g, proto, make, 2000);
    EXPECT_LE(long_run, short_run) << name;
  }
  const auto make_sync = [&] { return make_daemon("synchronous", seed); };
  const long long short_t2 = run_allocations(g, proto, make_sync, 50, 2);
  const long long long_t2 = run_allocations(g, proto, make_sync, 2000, 2);
  EXPECT_LE(long_t2, short_t2) << "synchronous threads=2";
}

}  // namespace
}  // namespace specstab
