#include "serve/serve_cli.hpp"

#include <csignal>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>

#include "serve/server.hpp"
#include "util/parse_number.hpp"

namespace specstab::serve {

namespace {

// SIGTERM/SIGINT self-pipe: the handler only writes one byte (the sole
// async-signal-safe thing to do); the server's event loop polls the
// readable fd and turns it into an orderly drain.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_stop_signal(int) {
  const char byte = 1;
  // Best effort; a full pipe already means a pending stop.
  [[maybe_unused]] const ssize_t rc = ::write(g_signal_pipe[1], &byte, 1);
}

constexpr const char* kUsage =
    "usage: specstab serve [--port P | --unix PATH] [--threads N]\n"
    "                      [--engine-threads N] [--cache-mb M] [--queue N]\n"
    "                      [--max-line-kb K]\n"
    "  --port P         listen on TCP 127.0.0.1:P (0 = ephemeral; default)\n"
    "  --unix PATH      listen on a unix-domain socket instead\n"
    "  --threads N      session worker threads (0 = hardware; default).\n"
    "                   Sizes the worker pool only: how many sessions run\n"
    "                   concurrently, not how many threads one session uses\n"
    "  --engine-threads N\n"
    "                   parallel-engine threads per worker (0 = hardware /\n"
    "                   workers; default).  Each worker keeps one persistent\n"
    "                   engine pool; a request's own \"threads\" field picks\n"
    "                   its shard count, clamped to this pool, so workers x\n"
    "                   engine threads never oversubscribes by default\n"
    "  --cache-mb M     result cache budget in MiB (0 disables; default 64)\n"
    "  --queue N        pending-session queue capacity (default 256)\n"
    "  --max-line-kb K  request line limit in KiB (default 1024)\n"
    "Runs until SIGTERM/SIGINT or a `shutdown` request, then drains: every\n"
    "accepted session still gets its reply before the process exits 0.\n";

}  // namespace

std::uint64_t parse_u64(std::string_view tool, std::string_view flag,
                        std::string_view text, std::uint64_t max) {
  const std::string where = std::string(tool) + ": " + std::string(flag);
  std::uint64_t value = 0;
  const std::errc ec = parse_number(text, value);
  if (ec == std::errc::invalid_argument) {
    throw std::invalid_argument(where + " needs a non-negative integer, got '" +
                                std::string(text) + "'");
  }
  if (ec != std::errc() || value > max) {
    throw std::invalid_argument(where + " out of range: " + std::string(text));
  }
  return value;
}

int serve_main(const std::vector<std::string>& args) {
  ServeOptions options;
  bool have_endpoint = false;
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& arg = args[i];
      const auto value = [&]() -> const std::string& {
        if (i + 1 >= args.size()) {
          throw std::invalid_argument("serve: " + arg + " needs a value");
        }
        return args[++i];
      };
      const auto number = [&](std::uint64_t max) {
        return parse_u64("serve", arg, value(), max);
      };
      if (arg == "--port") {
        if (have_endpoint) {
          throw std::invalid_argument("serve: --port and --unix are exclusive");
        }
        options.endpoint =
            Endpoint::tcp(static_cast<std::uint16_t>(number(65535)));
        have_endpoint = true;
      } else if (arg == "--unix") {
        if (have_endpoint) {
          throw std::invalid_argument("serve: --port and --unix are exclusive");
        }
        options.endpoint = Endpoint::unix_path(value());
        have_endpoint = true;
      } else if (arg == "--threads") {
        options.threads = static_cast<unsigned>(number(4096));
      } else if (arg == "--engine-threads") {
        options.engine_threads = static_cast<unsigned>(number(4096));
      } else if (arg == "--cache-mb") {
        options.cache_bytes = static_cast<std::size_t>(number(1u << 20)) << 20;
      } else if (arg == "--queue") {
        options.queue_capacity = static_cast<std::size_t>(number(1u << 20));
        if (options.queue_capacity == 0) {
          throw std::invalid_argument("serve: --queue must be at least 1");
        }
      } else if (arg == "--max-line-kb") {
        options.max_line_bytes =
            static_cast<std::size_t>(number(1u << 20)) << 10;
        if (options.max_line_bytes == 0) {
          throw std::invalid_argument("serve: --max-line-kb must be at least 1");
        }
      } else if (arg == "--help" || arg == "-h") {
        std::fputs(kUsage, stdout);
        return 0;
      } else {
        throw std::invalid_argument("serve: unknown option '" + arg + "'");
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), kUsage);
    return 2;
  }

  if (::pipe(g_signal_pipe) == -1) {
    std::fprintf(stderr, "serve: pipe() failed: %s\n", std::strerror(errno));
    return 1;
  }
  options.stop_fd = g_signal_pipe[0];
  struct sigaction action {};
  action.sa_handler = on_stop_signal;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  // Dying clients must surface as write errors, not process death.
  ::signal(SIGPIPE, SIG_IGN);

  try {
    SessionServer server(options);
    server.start();
    std::printf(
        "serve: listening on %s (threads %u, engine threads %u, cache %zu "
        "MiB, queue %zu)\n",
        server.endpoint().describe().c_str(), server.worker_threads(),
        server.engine_threads(), options.cache_bytes >> 20,
        options.queue_capacity);
    std::fflush(stdout);
    server.wait();
    const SessionServer::Stats stats = server.stats();
    std::printf(
        "serve: drained cleanly (%llu sessions, %llu connections, "
        "cache %llu/%llu hits)\n",
        static_cast<unsigned long long>(stats.sessions_completed),
        static_cast<unsigned long long>(stats.connections_accepted),
        static_cast<unsigned long long>(stats.cache.hits),
        static_cast<unsigned long long>(stats.cache.hits + stats.cache.misses));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve: %s\n", e.what());
    return 1;
  }
}

}  // namespace specstab::serve
