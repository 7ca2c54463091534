// The benchmark's own tests: the percentile rule, span self-time, input
// determinism, and every workload at its seconds-scale size on two seeds
// (untraced and traced), each of which must pass all output checks.
//
//   perfbench_test SPECSTAB_BINARY
//
// Exit code 0 iff every test passed.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "[ OK ]" : "[FAIL]", what.c_str());
  if (!ok) ++g_failures;
}

void test_percentile_rule() {
  using perfbench::tail_percentile;
  expect(tail_percentile(0) == 0.0, "no samples: no tail percentile");
  expect(tail_percentile(19) == 0.0, "19 samples: not even the median");
  expect(tail_percentile(20) == 50.0, "20 samples: the median");
  expect(tail_percentile(99) == 50.0, "99 samples: p50 (p90 leaves 9)");
  expect(tail_percentile(100) == 90.0, "100 samples: p90");
  expect(tail_percentile(200) == 95.0, "200 samples: p95");
  expect(tail_percentile(999) == 95.0, "999 samples: p95 (p99 leaves 9)");
  expect(tail_percentile(1000) == 99.0, "1000 samples: p99");
  expect(tail_percentile(10000) == 99.9, "10000 samples: p99.9");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const perfbench::Summary s = perfbench::summarize(v);
  expect(s.n == 1000 && s.median == 500.5, "median of 1..1000 is 500.5");
  expect(s.tail_pct == 99.0 && s.tail == 990.0,
         "p99 of 1..1000 is its 990th value");
  expect(s.at_or_tail(99.0) == 990.0, "at_or_tail(99) with enough samples");
  const perfbench::Summary few = perfbench::summarize({3.0, 1.0, 2.0});
  expect(few.median == 2.0 && few.tail_pct == 0.0 && few.at_or_tail(99.0) == 2.0,
         "three samples: median only, no tail");
}

void test_self_time() {
  using perfbench::Span;
  // root [0,100) with children [10,30) and [20,50) (overlapping) and
  // [60,70); the first child has a grandchild [12,18).
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},  {"a", 10, 30, 0, 1}, {"b", 20, 50, 0, 1},
      {"c", 60, 70, 0, 1},      {"a.x", 12, 18, 1, 1},
  };
  const std::vector<std::int64_t> self = perfbench::self_times_ns(spans);
  expect(self[0] == 100 - 40 - 10, "root self time excludes the children's union");
  expect(self[1] == 20 - 6, "child self time excludes its grandchild");
  expect(self[2] == 30 && self[3] == 10 && self[4] == 6, "leaf self time = duration");

  perfbench::Tracer tracer(true);
  {
    const auto outer = tracer.span("outer", 7);
    const auto inner = tracer.span("inner");
  }
  expect(tracer.spans().size() == 2 && tracer.spans()[1].parent == 0 &&
             tracer.spans()[1].request == 7,
         "nested spans record their parent and inherit the request id");
  perfbench::Tracer off(false);
  { const auto s = off.span("x"); }
  expect(off.spans().empty(), "a disabled tracer records nothing");
}

void test_determinism() {
  const auto lines = [](std::uint64_t seed, unsigned client) {
    perfbench::ServeMix mix(seed, client);
    std::vector<std::string> out;
    for (int i = 0; i < 400; ++i) out.push_back(mix.next().line);
    return out;
  };
  expect(lines(5, 2) == lines(5, 2), "same seed, same serve request sequence");
  expect(lines(5, 2) != lines(6, 2), "another seed, another request sequence");
  expect(lines(5, 1) != lines(5, 2), "clients draw different sequences");

  perfbench::ServeMix mix(11, 0);
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[static_cast<int>(mix.next().kind)];
  expect(std::abs(counts[0] - 4000) < 300 && std::abs(counts[1] - 4000) < 300 &&
             std::abs(counts[2] - 1500) < 200 && std::abs(counts[3] - 500) < 100,
         "request mix is 40/40/15/5");

  using perfbench::Scale;
  expect(perfbench::campaign_item_labels(Scale::kFull, 3) ==
             perfbench::campaign_item_labels(Scale::kFull, 3),
         "same seed, same campaign grid");
  expect(perfbench::campaign_item_labels(Scale::kFull, 3) !=
             perfbench::campaign_item_labels(Scale::kFull, 4),
         "another seed, another campaign grid");
}

void test_workloads(const std::string& specstab) {
  using perfbench::Outcome;
  for (const char* workload :
       {"sync-ssme-ring", "async-thm3-campaign", "serve-mixed"}) {
    for (const std::uint64_t seed : {1ull, 6ull}) {
      for (const bool trace : {false, true}) {
        perfbench::Options opt;
        opt.workload = workload;
        opt.seed = seed;
        opt.seconds = 1.0;
        opt.trace = trace;
        opt.scale = perfbench::Scale::kSmall;
        opt.specstab_path = specstab;
        const std::string w = workload;
        const Outcome out = w == "sync-ssme-ring" ? perfbench::run_sync_ring(opt)
                            : w == "async-thm3-campaign"
                                ? perfbench::run_campaign_thm3(opt)
                                : perfbench::run_serve_mixed(opt);
        std::string what = w + " small, seed " + std::to_string(seed) +
                           (trace ? ", traced" : ", untraced") +
                           ": passes its checks";
        for (const std::string& f : out.failures) what += "\n       " + f;
        expect(out.failed == 0 && out.attempted > 0, what);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_test SPECSTAB_BINARY\n");
    return 2;
  }
  test_percentile_rule();
  test_self_time();
  test_determinism();
  ::mkdir(perfbench::Options().out_dir.c_str(), 0755);
  test_workloads(argv[1]);
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
