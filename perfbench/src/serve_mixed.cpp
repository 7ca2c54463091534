// serve-mixed: `specstab serve --unix PATH --threads 2` as a child
// process, driven by 4 closed-loop client connections over its wire
// protocol with a seeded mix of small sessions (see ServeMix).
//
// Untraced: the closed loop runs for the run's seconds, and at least
// until every client has finished its first kMemoryCheckpoint requests;
// the server's memory is read at that checkpoint, after a fixed number
// of churned connections.  Traced: the closed loop sends a fixed number
// of requests per client, then the recorded requests are replayed in
// send order, in process, through the public functions the server calls
// (wire decode, result cache, session, rendering), with spans.  Every
// replayed reply must hash to the bytes the server sent.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <csignal>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "cli/cli.hpp"
#include "graph/properties.hpp"
#include "perfbench.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/transport.hpp"
#include "serve/wire.hpp"
#include "sim/protocol_registry.hpp"

extern char** environ;

namespace perfbench {

namespace {

namespace sv = specstab::serve;
using Kind = PlannedRequest::Kind;

constexpr unsigned kClients = 4;
constexpr unsigned kServerThreads = 2;
constexpr int kHotPoolSize = 32;
constexpr std::int64_t kChurnEvery = 20;  // 5% of the requests
constexpr std::size_t kCacheBytes = 64u << 20;  // the server's default
/// Requests per client before the server's memory is read (untraced):
/// 4 x 1000 / 20 = 200 churned connections.
constexpr std::size_t kMemoryCheckpoint = 1000;

constexpr const char* kProtocols[] = {"ssme",   "coloring", "min-plus-one",
                                      "leader", "matching", "unison"};
constexpr const char* kTopologies[] = {"ring 64", "torus 8 8",
                                       "random 64 0.1 7"};
constexpr const char* kDaemons[] = {"synchronous", "central-rr",
                                    "bernoulli-0.5"};
constexpr const char* kTraceProtocols[] = {"ssme", "unison"};

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

template <std::size_t N>
const char* pick(const char* const (&options)[N], std::uint64_t r) {
  return options[r % N];
}

std::string run_params(const char* protocol, const char* topology,
                       const char* daemon, std::uint64_t session_seed) {
  return std::string("{\"protocol\":\"") + protocol + "\",\"topology\":\"" +
         topology + "\",\"daemon\":\"" + daemon +
         "\",\"seed\":" + std::to_string(session_seed) + "}";
}

/// Hot-pool entry `index` of a workload seed: a fixed session tuple.
std::string hot_params(std::uint64_t seed, int index) {
  std::uint64_t x = seed * 0x100000001b3ull + static_cast<std::uint64_t>(index);
  return run_params(pick(kProtocols, splitmix(x)), pick(kTopologies, splitmix(x)),
                    pick(kDaemons, splitmix(x)),
                    static_cast<std::uint64_t>(index) + 1);
}

/// A session seed no hot-pool entry uses (those are 1..32).
std::uint64_t unique_seed(std::uint64_t& state) {
  return 1000 + (splitmix(state) >> 20);
}

std::string request_line(std::int64_t id, const char* method,
                         const std::string& params) {
  return "{\"id\":" + std::to_string(id) + ",\"method\":\"" + method +
         "\",\"params\":" + params + "}";
}

}  // namespace

ServeMix::ServeMix(std::uint64_t seed, unsigned client)
    : seed_(seed),
      client_(client),
      state_(seed * 0x9e3779b97f4a7c15ull + client * 0x632be59bd9b4e019ull) {}

PlannedRequest ServeMix::next() {
  PlannedRequest req;
  const std::int64_t index = count_++;
  req.id = static_cast<std::int64_t>(client_) * 100000000 + index;
  // Churn is every 20th request rather than a 5% draw, so the number of
  // churned connections after a given request count is exact.
  const bool churn = index % kChurnEvery == kChurnEvery - 1;
  const double u =
      churn ? 1.0
            : static_cast<double>(splitmix(state_) >> 11) * 0x1.0p-53 * 0.95;
  const auto unique_run = [this] {
    return run_params(pick(kProtocols, splitmix(state_)),
                      pick(kTopologies, splitmix(state_)),
                      pick(kDaemons, splitmix(state_)), unique_seed(state_));
  };
  if (u < 0.40) {
    req.kind = Kind::kMiss;
    req.line = request_line(req.id, "run", unique_run());
  } else if (u < 0.80) {
    req.kind = Kind::kHot;
    req.hot = static_cast<int>(splitmix(state_) % kHotPoolSize);
    req.line = request_line(req.id, "run", hot_params(seed_, req.hot));
  } else if (u < 0.95) {
    req.kind = Kind::kTrace;
    req.line = request_line(
        req.id, "trace",
        run_params(pick(kTraceProtocols, splitmix(state_)),
                   pick(kTopologies, splitmix(state_)), "synchronous",
                   unique_seed(state_)));
  } else {
    req.kind = Kind::kChurn;
    if (splitmix(state_) % 2 == 0) {
      req.hot = static_cast<int>(splitmix(state_) % kHotPoolSize);
      req.line = request_line(req.id, "run", hot_params(seed_, req.hot));
    } else {
      req.line = request_line(req.id, "run", unique_run());
    }
  }
  return req;
}

namespace {

/// The `specstab serve` child process.  The destructor stops it (the
/// `shutdown` RPC, then SIGKILL if it does not exit) and reaps it.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& socket_path)
      : endpoint_(sv::Endpoint::unix_path(socket_path)) {
    ::unlink(socket_path.c_str());
    std::vector<std::string> args = {binary,  "serve",     "--unix",
                                     socket_path, "--threads",
                                     std::to_string(kServerThreads)};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    spawned_ = Clock::now();
    if (posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(),
                    environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Seconds from spawn to the first `list` reply; -1 on timeout.
  double wait_ready(double timeout_s) {
    while (pid_ > 0 && seconds_since(spawned_) < timeout_s) {
      try {
        sv::LineClient client(endpoint_);
        const std::string reply =
            client.roundtrip("{\"id\":0,\"method\":\"list\"}");
        if (reply.rfind("{\"id\":0,\"result\":", 0) == 0) {
          return seconds_since(spawned_);
        }
      } catch (const std::exception&) {
        // not listening yet
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return -1.0;
  }

  /// The `stats` RPC result object, or null on failure.
  sv::JsonValue stats() const {
    try {
      sv::LineClient client(endpoint_);
      const sv::JsonValue reply = sv::JsonValue::parse(
          client.roundtrip("{\"id\":0,\"method\":\"stats\"}"));
      if (const sv::JsonValue* result = reply.find("result")) return *result;
    } catch (const std::exception&) {
    }
    return sv::JsonValue();
  }

  /// Drains the server and reaps it; true on a clean exit.
  bool stop() {
    if (pid_ <= 0) return true;
    try {
      sv::LineClient client(endpoint_);
      (void)client.roundtrip("{\"id\":0,\"method\":\"shutdown\"}");
    } catch (const std::exception&) {
      ::kill(pid_, SIGTERM);
    }
    int status = 0;
    const Clock::time_point start = Clock::now();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(start) > 60.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] const sv::Endpoint& endpoint() const { return endpoint_; }

 private:
  sv::Endpoint endpoint_;
  pid_t pid_ = -1;
  Clock::time_point spawned_;
};

/// One request as the client saw it.
struct Record {
  PlannedRequest req;
  std::int64_t sent_ns = 0;  ///< since the loop began; replay order
  double rtt_us = 0.0;
  std::uint64_t reply_hash = 0;  ///< FNV-1a over every reply line
};

/// Cross-client check state: the first payload seen per hot-pool entry.
struct HotPayloads {
  std::mutex mutex;
  std::vector<std::optional<std::string>> payloads =
      std::vector<std::optional<std::string>>(kHotPoolSize);
};

std::uint64_t hash_line(const std::string& line, std::uint64_t h) {
  return fnv1a("\n", fnv1a(line, h));
}

std::int64_t int_after(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + key.size(), nullptr, 10);
}

/// Sends one request and reads its whole reply; empty string on
/// success, else what failed.
std::string exchange(sv::LineClient& client, Record& rec, HotPayloads& hot) {
  const PlannedRequest& req = rec.req;
  if (!client.send_line(req.line)) return "send failed";
  std::optional<std::string> first = client.read_line();
  if (!first) return "connection closed before the reply";
  std::uint64_t h = hash_line(*first, 1469598103934665603ull);
  const std::string prefix = "{\"id\":" + std::to_string(req.id) + ",\"result\":";
  if (first->rfind(prefix, 0) != 0) return "not a result: " + first->substr(0, 160);
  if (req.kind != Kind::kTrace) {
    rec.reply_hash = h;
    if (req.hot >= 0) {
      std::string payload =
          first->substr(prefix.size(), first->size() - prefix.size() - 1);
      const std::lock_guard<std::mutex> lock(hot.mutex);
      auto& slot = hot.payloads[static_cast<std::size_t>(req.hot)];
      if (!slot) {
        slot = std::move(payload);
      } else if (*slot != payload) {
        return "hot-pool reply bytes differ from the cold miss's";
      }
    }
    return "";
  }
  const std::int64_t length = int_after(*first, "\"trace_length\":");
  std::int64_t deltas = 0;
  for (;;) {
    std::optional<std::string> line = client.read_line();
    if (!line) return "trace stream ended without an end line";
    h = hash_line(*line, h);
    if (line->find("\"type\":\"delta\"") != std::string::npos) {
      ++deltas;
    } else if (line->find("\"type\":\"end\"") != std::string::npos) {
      const std::int64_t records = int_after(*line, "\"records\":");
      rec.reply_hash = h;
      if (records != length - 1 || deltas != records) {
        return "trace end line counts " + std::to_string(records) +
               " records for trace_length " + std::to_string(length);
      }
      return "";
    }
  }
}

/// The server's memory, read at the checkpoint.
struct MemorySample {
  std::int64_t vmsize_kib = -1;
  std::int64_t vmhwm_kib = -1;
};

/// Completion of the checkpoint barrier: runs once every client has
/// finished its first checkpoint requests, while all of them wait.
struct MemoryProbe {
  int pid;
  MemorySample* out;
  void operator()() noexcept {
    try {
      out->vmsize_kib = proc_status_field(pid, "VmSize");
      out->vmhwm_kib = proc_status_field(pid, "VmHWM");
    } catch (...) {
      // left at -1: reported as a failed check
    }
  }
};
using Checkpoint = std::barrier<MemoryProbe>;

struct ClientLog {
  std::vector<Record> records;
  std::vector<std::string> failures;
  std::int64_t churned = 0;
  std::int64_t churned_at_checkpoint = 0;
};

/// One closed-loop client: sends its next request only after the
/// previous reply is complete, until `deadline` or `count` requests.
/// With a checkpoint barrier it keeps going past the deadline until its
/// first `checkpoint` requests are done, then waits there for the others.
void client_loop(const sv::Endpoint& endpoint, std::uint64_t seed,
                 unsigned client, Clock::time_point origin,
                 Clock::time_point deadline, std::size_t count,
                 std::size_t checkpoint, Checkpoint* sync, HotPayloads& hot,
                 ClientLog& log) {
  bool arrived = sync == nullptr;
  ServeMix mix(seed, client);
  std::optional<sv::LineClient> conn;
  try {
    conn.emplace(endpoint);
  } catch (const std::exception& e) {
    log.failures.push_back(std::string("connect: ") + e.what());
  }
  while (conn && log.records.size() < count &&
         (Clock::now() < deadline || !arrived)) {
    Record rec;
    rec.req = mix.next();
    const Clock::time_point start = Clock::now();
    rec.sent_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin)
            .count();
    std::string why;
    try {
      if (rec.req.kind == Kind::kChurn) {
        sv::LineClient fresh(endpoint);
        why = exchange(fresh, rec, hot);
        ++log.churned;
      } else {
        why = exchange(*conn, rec, hot);
      }
    } catch (const std::exception& e) {
      why = e.what();
    }
    rec.rtt_us =
        std::chrono::duration<double, std::micro>(Clock::now() - start).count();
    const Kind kind = rec.req.kind;
    const std::int64_t id = rec.req.id;
    log.records.push_back(std::move(rec));
    if (!why.empty()) {
      log.failures.push_back("request " + std::to_string(id) + ": " + why);
      if (kind != Kind::kChurn) break;  // the stream may be torn
    }
    if (!arrived && log.records.size() == checkpoint) {
      log.churned_at_checkpoint = log.churned;
      sync->arrive_and_wait();
      arrived = true;
    }
  }
  // A client that stops before the checkpoint leaves the barrier, so the
  // others do not wait for it.
  if (!arrived) sync->arrive_and_drop();
}

struct LoopResult {
  std::vector<Record> records;  ///< all clients, in send order
  std::vector<std::string> failures;
  std::int64_t churned = 0;
  std::int64_t churned_at_checkpoint = 0;
  MemorySample memory;  ///< at the checkpoint
  double wall_s = 0.0;
};

/// Runs the closed loop against the server `pid` at `endpoint`.  A
/// nonzero `checkpoint` reads the server's memory once every client has
/// finished that many requests.
LoopResult closed_loop(const sv::Endpoint& endpoint, int pid,
                       std::uint64_t seed, double seconds,
                       std::size_t per_client, std::size_t checkpoint) {
  HotPayloads hot;
  std::vector<ClientLog> logs(kClients);
  LoopResult out;
  std::optional<Checkpoint> sync;
  if (checkpoint > 0) sync.emplace(kClients, MemoryProbe{pid, &out.memory});
  const Clock::time_point origin = Clock::now();
  const Clock::time_point deadline =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        client_loop(endpoint, seed, c, origin, deadline, per_client,
                    checkpoint, sync ? &*sync : nullptr, hot, logs[c]);
      });
    }
  }
  out.wall_s = seconds_since(origin);
  for (ClientLog& log : logs) {
    out.churned += log.churned;
    out.churned_at_checkpoint += log.churned_at_checkpoint;
    for (auto& f : log.failures) out.failures.push_back(std::move(f));
    for (auto& r : log.records) out.records.push_back(std::move(r));
  }
  std::sort(out.records.begin(), out.records.end(),
            [](const Record& a, const Record& b) { return a.sent_ns < b.sent_ns; });
  return out;
}

std::int64_t stat_int(const sv::JsonValue& stats, const std::string& key,
                      const std::string& sub = "") {
  const sv::JsonValue* v = stats.find(key);
  if (v != nullptr && !sub.empty()) v = v->find(sub);
  return v != nullptr && v->kind() == sv::JsonValue::Kind::kInt ? v->as_int()
                                                                : -1;
}

/// What an in-process replay of the recorded requests measured.
struct ReplayResult {
  double wall_s = 0.0;
  std::int64_t mismatches = 0;
  std::int64_t trace_lines = 0;
  std::int64_t steps = 0;
  std::int64_t moves = 0;
  std::int64_t rounds = 0;
};

/// Replays `records` in send order through the public functions the
/// server calls, each inside a span; every reply must hash to what the
/// server sent.
ReplayResult replay(Tracer& tracer, const std::vector<Record>& records) {
  struct Topology {
    specstab::Graph graph;
    std::optional<specstab::VertexId> diam;
  };
  ReplayResult out;
  sv::ResultCache cache(kCacheBytes);
  std::map<std::string, Topology> topologies;
  const auto& registry = specstab::ProtocolRegistry::instance();
  const Clock::time_point start = Clock::now();
  for (const Record& rec : records) {
    const auto root = tracer.span("serve.request", rec.req.id);
    std::uint64_t h = 1469598103934665603ull;
    try {
      sv::Request req;
      sv::SessionRequest sreq;
      std::string key;
      {
        const auto span = tracer.span("serve.wire.decode");
        req = sv::parse_request(rec.req.line);
        sreq = sv::decode_session_params(req.params);
        key = sv::canonical_session_string(sreq);
      }
      const specstab::ProtocolEntry& entry = registry.at(sreq.protocol);
      const auto topology = [&]() -> Topology& {
        auto it = topologies.find(sreq.topology);
        if (it == topologies.end()) {
          const auto span = tracer.span("graph.build");
          std::vector<std::string> tokens;
          std::string token;
          for (const char c : sreq.topology + " ") {
            if (c == ' ') {
              tokens.push_back(token);
              token.clear();
            } else {
              token += c;
            }
          }
          std::size_t pos = 0;
          it = topologies
                   .emplace(sreq.topology,
                            Topology{specstab::cli::graph_from_spec(tokens, pos),
                                     std::nullopt})
                   .first;
        }
        Topology& topo = it->second;
        if (entry.needs_diameter && !topo.diam) {
          const auto span = tracer.span("graph.diameter");
          topo.diam = specstab::diameter(topo.graph);
        }
        return topo;
      };
      const auto count = [&out](const specstab::SessionResult& res) {
        out.steps += res.steps;
        out.moves += res.moves;
        out.rounds += res.rounds;
      };
      if (req.method == "run") {
        std::optional<std::string> hit;
        {
          const auto span = tracer.span("serve.cache.lookup");
          hit = cache.lookup(key);
        }
        std::string line;
        if (hit) {
          const auto span = tracer.span("serve.render");
          line = sv::render_result_line_raw(req.id, *hit);
        } else {
          Topology& topo = topology();
          specstab::SessionResult res;
          {
            const auto span = tracer.span("serve.session");
            res = entry.run_on(topo.graph, topo.diam.value_or(0), sreq.spec);
          }
          count(res);
          std::string payload;
          {
            const auto span = tracer.span("serve.render");
            payload = sv::session_result_to_json(sreq, res, false).dump();
            line = sv::render_result_line_raw(req.id, payload);
          }
          const auto span = tracer.span("serve.cache.insert");
          cache.insert(key, std::move(payload));
        }
        h = fnv1a(line, h);
      } else {
        Topology& topo = topology();
        specstab::SessionSpec spec = sreq.spec;
        spec.record_trace = true;
        specstab::SessionResult res;
        {
          const auto span = tracer.span("serve.session");
          res = entry.run_on(topo.graph, topo.diam.value_or(0), spec);
        }
        count(res);
        {
          const auto span = tracer.span("serve.render");
          h = fnv1a(sv::render_result_line(
                        req.id, sv::session_result_to_json(sreq, res, true)),
                    h);
        }
        const auto span = tracer.span("serve.trace.render");
        h = fnv1a(sv::render_trace_init_line(req.id, res.trace_config(0)), h);
        const specstab::StepIndex n = res.trace_length - 1;
        for (specstab::StepIndex a = 0; a < n; ++a) {
          h = fnv1a(sv::render_trace_delta_line(req.id, a, res.trace_delta(a)),
                    h);
        }
        h = fnv1a(sv::render_trace_end_line(req.id, n), h);
        out.trace_lines += n + 2;
      }
    } catch (const std::exception&) {
      h = 0;
    }
    if (h != rec.reply_hash) ++out.mismatches;
  }
  out.wall_s = seconds_since(start);
  return out;
}

std::string socket_path(const Options& opt, int index) {
  return opt.out_dir + "/serve-" + std::to_string(::getpid()) + "-" +
         std::to_string(index) + ".sock";
}

}  // namespace

Outcome run_serve_mixed(const Options& opt) {
  Outcome outcome;
  outcome.config["client_connections"] = std::to_string(kClients);
  outcome.config["server_threads"] = std::to_string(kServerThreads);
  outcome.config["loop"] = "closed";

  // Set-up: spawn to first `list` reply.  Ten throwaway servers before
  // the workload's own and (untraced) ten after it, so the median sees
  // the host as the workload did.
  std::vector<double> setups;
  int spawned = 0;
  const auto spawn = [&]() -> std::unique_ptr<ServerProcess> {
    auto server =
        std::make_unique<ServerProcess>(opt.specstab_path, socket_path(opt, spawned++));
    const double ready = server->wait_ready(30.0);
    if (ready < 0) return nullptr;
    setups.push_back(ready);
    return server;
  };
  const auto spawn_samples = [&](int count) {
    for (int i = 0; i < count; ++i) {
      if (spawn() == nullptr) return false;
    }
    return true;
  };
  std::unique_ptr<ServerProcess> server;
  if (!spawn_samples(10) || (server = spawn()) == nullptr) {
    outcome.fail("server did not answer `list` within 30 s");
    return outcome;
  }

  const bool small = opt.scale == Scale::kSmall;
  const std::size_t per_client =
      opt.trace ? (small ? 100 : 1000) : std::numeric_limits<std::size_t>::max();
  const std::size_t checkpoint =
      opt.trace ? 0 : (small ? 40 : kMemoryCheckpoint);
  const double seconds = opt.trace ? 1e9 : opt.seconds;
  const int pid = server->pid();
  const LoopResult loop = closed_loop(server->endpoint(), pid, opt.seed,
                                      seconds, per_client, checkpoint);

  const sv::JsonValue stats = server->stats();
  const std::int64_t threads = proc_status_field(pid, "Threads");
  outcome.attempted = static_cast<std::int64_t>(loop.records.size());
  for (const std::string& f : loop.failures) outcome.fail(f);
  const std::int64_t hits = stat_int(stats, "cache", "hits");
  const std::int64_t misses = stat_int(stats, "cache", "misses");
  const double hit_ratio =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  const std::int64_t busy = stat_int(stats, "busy_rejections");
  const std::int64_t errors = stat_int(stats, "protocol_errors");
  if (busy != 0 || errors != 0) {
    outcome.fail("server counted " + std::to_string(busy) + " busy and " +
                 std::to_string(errors) + " protocol errors");
  }

  if (!opt.trace) {
    std::vector<double> rtt_ms;
    std::vector<double> miss_s;
    for (const Record& r : loop.records) {
      rtt_ms.push_back(r.rtt_us * 1e-3);
      if (r.req.kind == Kind::kMiss) miss_s.push_back(r.rtt_us * 1e-6);
    }
    const Summary rtt = summarize(rtt_ms);
    const Summary miss = summarize(miss_s);
    outcome.add("session_s", miss.median, "s",
                "round trip of a cache-miss run, " + miss.describe());
    outcome.add("sessions_per_s",
                static_cast<double>(loop.records.size()) / loop.wall_s, "1/s",
                "replies / closed-loop wall");
    // Memory at the checkpoint, after a fixed number of churned
    // connections, so it does not scale with the request rate.
    if (loop.memory.vmsize_kib < 0 || loop.memory.vmhwm_kib < 0) {
      outcome.fail("could not read the server's memory at the checkpoint");
    }
    const std::string at =
        " of the server child after each client's first " +
        std::to_string(checkpoint) + " requests (" +
        std::to_string(loop.churned_at_checkpoint) + " churned connections)";
    outcome.add("peak_rss_mb",
                static_cast<double>(loop.memory.vmhwm_kib) / 1024.0, "MiB",
                "VmHWM" + at);
    outcome.add("server_vmsize_mb",
                static_cast<double>(loop.memory.vmsize_kib) / 1024.0, "MiB",
                "VmSize" + at);
    outcome.add_extra(
        "server_vmsize_end_mb",
        static_cast<double>(proc_status_field(pid, "VmSize")) / 1024.0, "MiB",
        "VmSize of the server child at the end, after " +
            std::to_string(loop.churned) + " churned connections");
    outcome.add_extra("latency_p50_ms", rtt.median, "ms", rtt.describe());
    outcome.add_extra("latency_p99_ms", rtt.at_or_tail(99.0), "ms",
                      rtt.describe());
    outcome.add_extra("churned_connections", static_cast<double>(loop.churned),
                      "count");
    outcome.add_extra("cache_hit_ratio", hit_ratio, "ratio", "stats RPC");
    outcome.add_extra("server_threads", static_cast<double>(threads), "count");
    if (!server->stop()) outcome.fail("server did not drain cleanly");
    if (!spawn_samples(10)) outcome.fail("server did not answer `list` within 30 s");
    const Summary setup = summarize(setups);
    outcome.add("setup_s", setup.median, "s",
                "server spawn to first list reply, " + setup.describe());
    return outcome;
  }

  if (!server->stop()) outcome.fail("server did not drain cleanly");
  // A warm-up replay first, so the untraced and traced replays compared
  // for the tracing overhead both start from a warm process.
  Tracer off(false);
  const ReplayResult warm = replay(off, loop.records);
  const ReplayResult plain = replay(off, loop.records);
  Tracer tracer(true);
  const ReplayResult traced = replay(tracer, loop.records);
  if (warm.mismatches != 0 || plain.mismatches != 0 ||
      traced.mismatches != 0) {
    outcome.fail(std::to_string(traced.mismatches) +
                 " replayed replies differ from the server's bytes");
  }

  // Per-request service time: the root span of each replayed request.
  std::map<std::int64_t, double> service_us;
  for (const Span& s : tracer.spans()) {
    if (s.name == "serve.request") {
      service_us[s.request] = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    }
  }
  std::vector<double> overhead_us;
  for (const Record& r : loop.records) {
    overhead_us.push_back(r.rtt_us - service_us[r.req.id]);
  }
  const auto us = [&tracer](const char* name) {
    std::vector<double> v = tracer.durations_s(name);
    for (double& x : v) x *= 1e6;
    return summarize(std::move(v));
  };
  const Summary session = summarize(tracer.durations_s("serve.session"));
  const Summary overhead = summarize(overhead_us);
  outcome.add("graph.build_s", tracer.total_s("graph.build"), "s");
  outcome.add("graph.diameter_s", tracer.total_s("graph.diameter"), "s");
  outcome.add("graph.diameter_calls",
              static_cast<double>(tracer.count("graph.diameter")), "count");
  outcome.add("sim.steps", static_cast<double>(traced.steps), "count");
  outcome.add("sim.moves", static_cast<double>(traced.moves), "count");
  outcome.add("sim.rounds", static_cast<double>(traced.rounds), "count");
  const Summary decode = us("serve.wire.decode");
  const Summary lookup = us("serve.cache.lookup");
  const Summary insert = us("serve.cache.insert");
  const Summary render = us("serve.render");
  outcome.add("serve.wire.decode_us", decode.median, "us", decode.describe());
  outcome.add("serve.cache.lookup_us", lookup.median, "us", lookup.describe());
  outcome.add("serve.cache.insert_us", insert.median, "us", insert.describe());
  outcome.add("serve.cache.hit_ratio", hit_ratio, "ratio", "stats RPC");
  outcome.add("serve.cache.evictions",
              static_cast<double>(stat_int(stats, "cache", "evictions")),
              "count", "stats RPC");
  outcome.add("serve.session_ms.p50", session.median * 1e3, "ms",
              session.describe(1e3));
  outcome.add("serve.session_ms.p99", session.at_or_tail(99.0) * 1e3, "ms",
              session.describe(1e3));
  outcome.add("serve.render_us", render.median, "us", render.describe());
  outcome.add("serve.trace.render_us_per_line",
              traced.trace_lines > 0
                  ? tracer.total_s("serve.trace.render") * 1e6 /
                        static_cast<double>(traced.trace_lines)
                  : 0.0,
              "us");
  outcome.add("serve.trace.lines", static_cast<double>(traced.trace_lines),
              "count");
  outcome.add("serve.overhead_us.p50", overhead.median, "us",
              overhead.describe());
  outcome.add("serve.busy_rejections", static_cast<double>(busy), "count");
  outcome.add("serve.protocol_errors", static_cast<double>(errors), "count");
  outcome.add("serve.connections_accepted",
              static_cast<double>(stat_int(stats, "connections_accepted")),
              "count");
  outcome.add("serve.threads", static_cast<double>(threads), "count");
  outcome.add("trace.overhead_s", traced.wall_s - plain.wall_s, "s",
              "traced replay wall - untraced replay wall");
  if (!tracer.write_jsonl(opt.out_dir + "/spans-serve-mixed-seed" +
                          std::to_string(opt.seed) + ".jsonl")) {
    outcome.fail("could not write the span file");
  }
  return outcome;
}

}  // namespace perfbench
