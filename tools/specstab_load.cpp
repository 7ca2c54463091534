// Load generator for `specstab serve`: N client connections driving a
// seeded mixed sweep of `run` requests over the wire protocol, with a
// configurable cache-hit ratio, reporting sessions/sec and latency
// percentiles as one JSON object on stdout.
//
//   specstab_load --port P [--connections N] [--requests R]
//                 [--hit-ratio H] [--seed S]
//   specstab_load --unix PATH [...]
//
// The hit ratio is engineered, not hoped for: each request draws, with
// probability H, a spec from a small fixed "hot" pool (identical
// canonical tuples — cache hits once warm) and otherwise a
// never-repeated unique seed (guaranteed miss).  All draws come from a
// seeded generator, so a given (--seed, --connections, --requests,
// --hit-ratio) emits the same request sequence every time.
//
// Exit code: 0 when every request got a result reply, 1 otherwise —
// the CI serve job uses it as a smoke gate — and 2, before any client
// starts, on a bad option: every number goes through
// util/parse_number.hpp (digits only, the whole token, in range), the
// integers by way of `specstab serve`'s serve::parse_u64, and the hit
// ratio must be a number in [0, 1], so
// `--connections -1` cannot wrap around to four billion client threads.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/serve_cli.hpp"
#include "serve/transport.hpp"
#include "util/parse_number.hpp"

namespace {

using specstab::serve::Endpoint;
using specstab::serve::JsonValue;
using specstab::serve::LineClient;

struct LoadOptions {
  Endpoint endpoint = Endpoint::tcp(0);
  bool have_endpoint = false;
  unsigned connections = 4;
  unsigned requests = 50;  // per connection
  double hit_ratio = 0.5;
  std::uint64_t seed = 1;
};

constexpr const char* kUsage =
    "usage: specstab_load (--port P | --unix PATH) [--connections N]\n"
    "                     [--requests R] [--hit-ratio H] [--seed S]\n"
    "  P is at most 65535, N at most 4096, H a number in [0, 1]\n";

// The hot pool: distinct canonical tuples re-requested verbatim.  Small
// topologies keep per-session cost low enough that the generator
// measures the serve path, not the simulator.
struct HotSpec {
  const char* protocol;
  const char* topology;
  const char* daemon;
};
constexpr HotSpec kHotPool[] = {
    {"ssme", "ring 12", "synchronous"},
    {"ssme", "ring 16", "central-rr"},
    {"coloring", "ring 12", "central-rr"},
    {"min-plus-one", "torus 3 4", "synchronous"},
    {"leader", "ring 12", "central-rr"},
    {"matching", "torus 3 4", "central-rr"},
};
constexpr std::size_t kHotPoolSize = sizeof(kHotPool) / sizeof(kHotPool[0]);

[[nodiscard]] std::string request_line(std::uint64_t id, const HotSpec& spec,
                                       std::uint64_t seed) {
  return "{\"id\":" + std::to_string(id) +
         ",\"method\":\"run\",\"params\":{\"protocol\":\"" + spec.protocol +
         "\",\"topology\":\"" + spec.topology + "\",\"daemon\":\"" +
         spec.daemon + "\",\"seed\":" + std::to_string(seed) + "}}";
}

struct WorkerResult {
  std::vector<double> latencies_us;
  unsigned errors = 0;
};

void run_worker(const LoadOptions& opt, unsigned worker_index,
                WorkerResult& out) {
  // Per-worker stream split off the master seed, so the sequence is
  // reproducible regardless of thread interleaving.
  std::mt19937_64 rng(opt.seed * 0x9e3779b97f4a7c15ull + worker_index);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> hot(0, kHotPoolSize - 1);
  try {
    LineClient client(opt.endpoint);
    out.latencies_us.reserve(opt.requests);
    for (unsigned r = 0; r < opt.requests; ++r) {
      std::string line;
      const std::uint64_t id =
          static_cast<std::uint64_t>(worker_index) * opt.requests + r;
      if (coin(rng) < opt.hit_ratio) {
        // Hot pool entries use a fixed seed: same canonical tuple.
        line = request_line(id, kHotPool[hot(rng)], 7);
      } else {
        // Unique-seed cold request (hot seed 7 never collides: unique
        // seeds start above any realistic request count).
        line = request_line(id, kHotPool[hot(rng)], 1000000 + id);
      }
      const auto begin = std::chrono::steady_clock::now();
      const std::string reply = client.roundtrip(line);
      const auto end = std::chrono::steady_clock::now();
      out.latencies_us.push_back(
          std::chrono::duration<double, std::micro>(end - begin).count());
      const JsonValue parsed = JsonValue::parse(reply);
      if (parsed.find("result") == nullptr) ++out.errors;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "specstab_load: worker %u: %s\n", worker_index,
                 e.what());
    ++out.errors;
  }
}

[[nodiscard]] double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  LoadOptions opt;
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& arg = args[i];
      const auto value = [&]() -> const std::string& {
        if (i + 1 >= args.size()) {
          throw std::invalid_argument("specstab_load: " + arg +
                                      " needs a value");
        }
        return args[++i];
      };
      const auto number = [&](std::uint64_t max) {
        return specstab::serve::parse_u64("specstab_load", arg, value(), max);
      };
      if (arg == "--port") {
        opt.endpoint = Endpoint::tcp(static_cast<std::uint16_t>(number(65535)));
        opt.have_endpoint = true;
      } else if (arg == "--unix") {
        opt.endpoint = Endpoint::unix_path(value());
        opt.have_endpoint = true;
      } else if (arg == "--connections") {
        opt.connections = static_cast<unsigned>(number(4096));
      } else if (arg == "--requests") {
        opt.requests =
            static_cast<unsigned>(number(std::numeric_limits<unsigned>::max()));
      } else if (arg == "--hit-ratio") {
        const std::string& text = value();
        if (specstab::parse_number(text, opt.hit_ratio) != std::errc() ||
            opt.hit_ratio < 0.0 || opt.hit_ratio > 1.0) {
          throw std::invalid_argument(
              "specstab_load: --hit-ratio needs a number in [0, 1], got '" +
              text + "'");
        }
      } else if (arg == "--seed") {
        opt.seed = number(std::numeric_limits<std::uint64_t>::max());
      } else if (arg == "--help" || arg == "-h") {
        std::fputs(kUsage, stdout);
        return 0;
      } else {
        throw std::invalid_argument("specstab_load: unknown option '" + arg +
                                    "'");
      }
    }
    if (!opt.have_endpoint || opt.connections == 0 || opt.requests == 0) {
      throw std::invalid_argument(
          "specstab_load: need --port or --unix, and nonzero "
          "--connections/--requests");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), kUsage);
    return 2;
  }

  std::vector<WorkerResult> results(opt.connections);
  std::vector<std::thread> threads;
  threads.reserve(opt.connections);
  const auto begin = std::chrono::steady_clock::now();
  for (unsigned c = 0; c < opt.connections; ++c) {
    threads.emplace_back(
        [&opt, c, &results] { run_worker(opt, c, results[c]); });
  }
  for (auto& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(end - begin).count();

  std::vector<double> latencies;
  unsigned errors = 0;
  for (const WorkerResult& r : results) {
    latencies.insert(latencies.end(), r.latencies_us.begin(),
                     r.latencies_us.end());
    errors += r.errors;
  }
  std::sort(latencies.begin(), latencies.end());
  const double sessions = static_cast<double>(latencies.size());
  const double sessions_per_sec =
      elapsed_ms > 0.0 ? sessions / (elapsed_ms / 1000.0) : 0.0;

  std::printf(
      "{\"connections\": %u, \"requests_per_connection\": %u, "
      "\"hit_ratio\": %.3f, \"seed\": %llu, \"completed\": %zu, "
      "\"errors\": %u, \"elapsed_ms\": %.3f, \"sessions_per_sec\": %.1f, "
      "\"latency_us\": {\"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f}}\n",
      opt.connections, opt.requests, opt.hit_ratio,
      static_cast<unsigned long long>(opt.seed), latencies.size(), errors,
      elapsed_ms, sessions_per_sec, percentile(latencies, 0.50),
      percentile(latencies, 0.95), percentile(latencies, 0.99));
  return errors == 0 ? 0 : 1;
}
