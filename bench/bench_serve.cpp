// SERVE — session-service throughput, cold cache vs warm cache.
//
// Embeds a SessionServer in-process (unix-domain socket), drives it with
// a fixed mixed sweep of `run` requests over real client connections,
// and times two phases per worker-thread count: cold (every request a
// distinct canonical tuple — all cache misses) and warm (the identical
// request sequence again — all hits).  Rows land in BENCH_serve.json at
// t1 and t8, each with sessions/sec and p50/p95 latency.
//
// The regression gate (tools/check_bench_regression.cpp) tracks
// `warm_speedup` — the warm/cold throughput ratio at the same thread
// count — because ratios transfer across hosts while absolute
// sessions/sec do not (same reasoning as BENCH_engine.json's speedup
// keys).
//
//   bench_serve [--smoke] [--json PATH] [--connections C]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "campaign/artifacts.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/parse_number.hpp"

namespace {

using namespace specstab::serve;

std::string fmt(double value, int precision = 2) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - double(lo));
}

/// The sweep: small instances across several protocols, so the rows
/// measure the serve path (framing, queueing, cache, rendering), not
/// simulator wall-clock.
std::vector<std::string> build_requests(std::size_t count) {
  struct Mix {
    const char* protocol;
    const char* topology;
    const char* daemon;
  };
  static constexpr Mix kMix[] = {
      {"ssme", "ring 12", "central-rr"},
      {"coloring", "ring 16", "central-rr"},
      {"min-plus-one", "torus 3 4", "synchronous"},
      {"leader", "ring 12", "central-rr"},
  };
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Mix& mix = kMix[i % (sizeof(kMix) / sizeof(kMix[0]))];
    // Distinct seed per request => distinct canonical tuple => the cold
    // phase is all misses; the warm phase resends these exact lines.
    lines.push_back("{\"id\":" + std::to_string(i) +
                    ",\"method\":\"run\",\"params\":{\"protocol\":\"" +
                    mix.protocol + "\",\"topology\":\"" + mix.topology +
                    "\",\"daemon\":\"" + mix.daemon +
                    "\",\"seed\":" + std::to_string(1000 + i) + "}}");
  }
  return lines;
}

struct Phase {
  double elapsed_ms = 0.0;
  double sessions_per_sec = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  std::size_t errors = 0;
};

Phase run_phase(const Endpoint& endpoint,
                const std::vector<std::string>& lines, unsigned connections) {
  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::size_t> errors(connections, 0);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  const auto begin = std::chrono::steady_clock::now();
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      try {
        LineClient client(endpoint);
        // Strided split: every connection sees the full protocol mix.
        for (std::size_t i = c; i < lines.size(); i += connections) {
          const auto t0 = std::chrono::steady_clock::now();
          const std::string reply = client.roundtrip(lines[i]);
          const auto t1 = std::chrono::steady_clock::now();
          latencies[c].push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
          if (reply.find("\"result\"") == std::string::npos) ++errors[c];
        }
      } catch (const std::exception&) {
        ++errors[c];
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();

  Phase phase;
  phase.elapsed_ms =
      std::chrono::duration<double, std::milli>(end - begin).count();
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  for (const std::size_t e : errors) phase.errors += e;
  std::sort(all.begin(), all.end());
  phase.sessions_per_sec =
      phase.elapsed_ms > 0.0
          ? static_cast<double>(all.size()) / (phase.elapsed_ms / 1000.0)
          : 0.0;
  phase.p50_us = percentile(all, 0.50);
  phase.p95_us = percentile(all, 0.95);
  return phase;
}

struct Row {
  unsigned threads = 0;
  std::size_t sessions = 0;
  Phase cold;
  Phase warm;

  [[nodiscard]] double warm_speedup() const {
    return cold.sessions_per_sec > 0.0
               ? warm.sessions_per_sec / cold.sessions_per_sec
               : 0.0;
  }
};

Row measure(unsigned server_threads, std::size_t sessions,
            unsigned connections) {
  const std::string socket_path = "/tmp/specstab-bench-serve-" +
                                  std::to_string(::getpid()) + "-t" +
                                  std::to_string(server_threads) + ".sock";
  ServeOptions options;
  options.endpoint = Endpoint::unix_path(socket_path);
  options.threads = server_threads;
  options.queue_capacity = sessions + 16;  // backpressure is not the subject
  SessionServer server(options);
  server.start();

  const std::vector<std::string> lines = build_requests(sessions);
  Row row;
  row.threads = server_threads;
  row.sessions = sessions;
  row.cold = run_phase(server.endpoint(), lines, connections);
  row.warm = run_phase(server.endpoint(), lines, connections);
  const SessionServer::Stats stats = server.stats();
  server.initiate_shutdown();
  server.wait();
  if (row.cold.errors + row.warm.errors > 0 ||
      stats.cache.hits < sessions) {
    std::cerr << "!! SERVE BENCH INVALID at t" << server_threads << ": "
              << row.cold.errors + row.warm.errors << " errors, "
              << stats.cache.hits << " cache hits (expected >= " << sessions
              << ")\n";
    std::exit(2);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: bench_serve [--smoke] [--json PATH] [--connections C]\n";
  bool smoke = false;
  std::string json_path = "BENCH_serve.json";
  unsigned connections = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--connections" && i + 1 < argc) {
      // The whole token, an integer in [1, 4096]: one client thread each.
      const char* text = argv[++i];
      if (specstab::parse_number(text, connections) != std::errc() ||
          connections < 1 || connections > 4096) {
        std::cerr << "bench_serve: --connections needs an integer in "
                     "[1, 4096], got '"
                  << text << "'\n"
                  << kUsage;
        return 1;
      }
    } else {
      std::cerr << kUsage;
      return 1;
    }
  }
  const std::size_t sessions = smoke ? 48 : 400;

  std::cout << "\n== SERVE: session throughput, cold vs warm cache ["
            << (smoke ? "smoke" : "full") << ", " << connections
            << " connections, " << sessions << " sessions/phase] ==\n\n";

  std::vector<Row> rows;
  for (const unsigned t : {1u, 8u}) {
    rows.push_back(measure(t, sessions, connections));
  }

  std::cout << std::left << std::setw(16) << "row" << std::right
            << std::setw(14) << "sess/s" << std::setw(12) << "p50-us"
            << std::setw(12) << "p95-us" << std::setw(12) << "warm-spd"
            << "\n" << std::string(66, '-') << "\n";
  for (const Row& row : rows) {
    std::cout << std::left << std::setw(16)
              << ("serve/t" + std::to_string(row.threads) + "/cold")
              << std::right << std::setw(14) << fmt(row.cold.sessions_per_sec, 1)
              << std::setw(12) << fmt(row.cold.p50_us, 1) << std::setw(12)
              << fmt(row.cold.p95_us, 1) << std::setw(12) << "-" << "\n";
    std::cout << std::left << std::setw(16)
              << ("serve/t" + std::to_string(row.threads) + "/warm")
              << std::right << std::setw(14) << fmt(row.warm.sessions_per_sec, 1)
              << std::setw(12) << fmt(row.warm.p50_us, 1) << std::setw(12)
              << fmt(row.warm.p95_us, 1) << std::setw(11)
              << fmt(row.warm_speedup()) << "x\n";
  }

  std::ostringstream os;
  os << "{\n"
     << "  \"bench\": \"serve\",\n"
     << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
     << "  \"connections\": " << connections << ",\n"
     << "  \"sessions_per_phase\": " << sessions << ",\n"
     << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    os << "    {\"name\": \"serve/mixed/t" << row.threads
       << "\", \"sessions\": " << row.sessions
       << ", \"cold_sessions_per_sec\": " << fmt(row.cold.sessions_per_sec, 1)
       << ", \"cold_p50_us\": " << fmt(row.cold.p50_us, 1)
       << ", \"cold_p95_us\": " << fmt(row.cold.p95_us, 1)
       << ", \"warm_sessions_per_sec\": " << fmt(row.warm.sessions_per_sec, 1)
       << ", \"warm_p50_us\": " << fmt(row.warm.p50_us, 1)
       << ", \"warm_p95_us\": " << fmt(row.warm.p95_us, 1)
       << ", \"warm_speedup\": " << fmt(row.warm_speedup()) << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  specstab::campaign::write_text_file(json_path, os.str());
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
