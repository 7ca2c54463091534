#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "cli/cli.hpp"
#include "graph/properties.hpp"
#include "sim/daemon.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/protocol_registry.hpp"

namespace specstab::serve {

namespace {

/// The executing worker's persistent engine pool (set by
/// worker_loop for its lifetime); sessions attach it to their spec.
thread_local ShardPool* tl_engine_pool = nullptr;

/// How long a server whose accept() failed (out of fds, typically) stops
/// watching its listener before it tries again: long enough that the
/// loop never spins on a pending connection it cannot take, short
/// enough that the client is served soon after an fd frees up.
constexpr std::chrono::milliseconds kAcceptRetry{100};

/// A trace stream leaves in writes of at least this many bytes (the
/// last one excepted), each of whole lines: one send() per batch instead
/// of one per line.
constexpr std::size_t kTraceBatchBytes = 16u << 10;

/// One byte on the event loop's wake pipe.  The pipe never holds more
/// than the two wakes, so the write neither blocks nor is interrupted.
void wake(const Fd& pipe_write) {
  if (pipe_write.valid()) {
    [[maybe_unused]] const ssize_t rc = ::write(pipe_write.get(), "", 1);
  }
}

/// Splits a canonical topology spelling back into CLI tokens.
[[nodiscard]] std::vector<std::string> topology_tokens(
    const std::string& canonical) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos < canonical.size()) {
    const std::size_t space = canonical.find(' ', pos);
    const std::size_t end =
        space == std::string::npos ? canonical.size() : space;
    tokens.push_back(canonical.substr(pos, end - pos));
    pos = end + 1;
  }
  return tokens;
}

}  // namespace

/// Lazy per-instance diameter (see TopologyInstance).  On a throw (the
/// graph is disconnected) the once-flag stays unset, so the error is
/// reported per session instead of poisoning the instance.
VertexId SessionServer::instance_diameter(const TopologyInstance& topo) {
  std::call_once(topo.diameter_once,
                 [&topo] { topo.diameter = diameter(topo.graph); });
  return topo.diameter;
}

/// Per-connection state shared between the event loop and the workers
/// serving its queued requests.  Only the loop touches `reader`.
/// Every write is of whole lines (one reply, or a batch of trace lines),
/// so replies from the loop and concurrent workers interleave at line
/// granularity only (write_mutex); `alive` flips false on the first
/// failed write or read, after which every further write is a cheap
/// no-op — a half-streamed trace to a vanished client stops without
/// tearing anything down.
struct SessionServer::Connection {
  Fd fd;
  LineReader reader;
  std::mutex write_mutex;
  std::atomic<bool> alive{true};

  Connection(Fd fd_in, std::size_t max_line_bytes)
      : fd(std::move(fd_in)), reader(fd.get(), max_line_bytes) {}

  bool write_lines(const std::string& lines) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    if (!alive.load(std::memory_order_relaxed)) return false;
    if (!write_all(fd.get(), lines)) {
      alive.store(false, std::memory_order_relaxed);
      return false;
    }
    return true;
  }
};

SessionServer::SessionServer(ServeOptions options)
    : options_(options),
      queue_(options.queue_capacity),
      cache_(options.cache_bytes) {}

SessionServer::~SessionServer() {
  if (started_ && !drained_) {
    initiate_shutdown();
    wait();
  }
}

void SessionServer::start() {
  listener_ = std::make_unique<Listener>(options_.endpoint);
  int pipe_fds[2];
  if (::pipe(pipe_fds) == -1) {
    throw std::runtime_error("serve: pipe() failed for the shutdown wake-up");
  }
  wake_read_ = Fd(pipe_fds[0]);
  wake_write_ = Fd(pipe_fds[1]);

  unsigned threads = options_.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  // Auto engine-thread sizing: split the hardware between the session
  // workers so workers × engine threads never oversubscribes — a host
  // with 8 cores and 4 workers gives each worker a 2-participant engine
  // pool.  An explicit engine_threads overrides the split.
  engine_threads_ =
      options_.engine_threads != 0
          ? options_.engine_threads
          : std::max(1u, std::max(1u, std::thread::hardware_concurrency()) /
                             threads);
  workers_.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  loop_ = std::thread([this] { event_loop(); });
  started_ = true;
}

std::uint16_t SessionServer::port() const {
  return listener_ ? listener_->port() : 0;
}

const Endpoint& SessionServer::endpoint() const {
  return listener_ ? listener_->endpoint() : options_.endpoint;
}

void SessionServer::initiate_shutdown() {
  {
    const std::lock_guard<std::mutex> lock(shutdown_mutex_);
    // From this moment no new session is accepted; already-queued jobs
    // still drain and answer.
    if (draining_.exchange(true)) return;
  }
  shutdown_cv_.notify_all();
  wake(wake_write_);  // the loop stops accepting
}

void SessionServer::wait() {
  {
    std::unique_lock<std::mutex> lock(shutdown_mutex_);
    shutdown_cv_.wait(lock, [this] { return draining_.load(); });
    if (drained_) return;
  }
  // Seal the queue, then let the workers finish every accepted job —
  // clients whose requests were queued before the drain began still get
  // their replies.  Meanwhile the loop keeps reading and answers new
  // session requests `shutting-down`.
  queue_.close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // Only now stop the loop; the connections it drops carry no pending
  // replies anymore, so each closes with its last reference.
  loop_exit_.store(true);
  wake(wake_write_);
  if (loop_.joinable()) loop_.join();
  listener_.reset();  // closes and, for unix endpoints, unlinks the path
  const std::lock_guard<std::mutex> lock(shutdown_mutex_);
  drained_ = true;
}

SessionServer::Stats SessionServer::stats() const {
  Stats out;
  out.connections_accepted = connections_accepted_.load();
  out.active_connections = active_connections_.load();
  out.requests = requests_.load();
  out.sessions_completed = sessions_completed_.load();
  out.busy_rejections = busy_rejections_.load();
  out.protocol_errors = protocol_errors_.load();
  out.queue_depth = queue_.depth();
  out.queue_capacity = queue_.capacity();
  out.cache = cache_.stats();
  return out;
}

void SessionServer::event_loop() {
  // Slots 0-2 watch the wake pipe, the stop fd (the CLI's signal pipe)
  // and the listener; slot 3 + i watches open[i].  poll() skips
  // negative fds, which is how the listener and the stop fd drop out.
  using Clock = std::chrono::steady_clock;
  std::vector<ConnectionPtr> open;
  std::vector<pollfd> fds;
  Clock::time_point accept_resume;
  while (!loop_exit_.load()) {
    const bool draining = draining_.load();
    const bool accepting = !draining && Clock::now() >= accept_resume;
    fds.clear();
    fds.push_back({wake_read_.get(), POLLIN, 0});
    fds.push_back({draining ? -1 : options_.stop_fd, POLLIN, 0});
    fds.push_back({accepting ? listener_->fd() : -1, POLLIN, 0});
    for (const ConnectionPtr& conn : open) {
      fds.push_back({conn->fd.get(), POLLIN, 0});
    }
    const int timeout_ms =
        draining || accepting ? -1 : static_cast<int>(kAcceptRetry.count());
    if (::poll(fds.data(), fds.size(), timeout_ms) == -1) {
      // EINTR, or the kernel is short of memory: poll again, not in a spin.
      if (errno != EINTR) std::this_thread::sleep_for(kAcceptRetry);
      continue;
    }
    if (fds[0].revents != 0) {
      char bytes[8];
      [[maybe_unused]] const ssize_t rc =
          ::read(wake_read_.get(), bytes, sizeof(bytes));
    }
    if (fds[1].revents != 0) initiate_shutdown();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < open.size(); ++i) {
      if (fds[3 + i].revents != 0 && !read_connection(open[i])) {
        // Queued jobs for this connection keep it (and the fd) alive
        // through their own shared_ptr.
        active_connections_.fetch_sub(1);
        continue;
      }
      open[kept++] = std::move(open[i]);
    }
    open.resize(kept);
    if (fds[2].revents == 0) continue;
    // Linux does not pass the listener's O_NONBLOCK on to the accepted
    // socket, so replies use blocking writes.
    const int fd = ::accept(listener_->fd(), nullptr, nullptr);
    if (fd >= 0) {
      open.push_back(
          std::make_shared<Connection>(Fd(fd), options_.max_line_bytes));
      connections_accepted_.fetch_add(1);
      active_connections_.fetch_add(1);
    } else if (errno != EINTR && errno != ECONNABORTED && errno != EAGAIN) {
      // EMFILE, ENFILE, ENOBUFS or ENOMEM leave the client pending and
      // the listener readable: keep serving the open connections and
      // try again after the pause instead of spinning (or draining).
      accept_resume = Clock::now() + kAcceptRetry;
    }
  }
  // The workers are joined: these are the last references.
  active_connections_.fetch_sub(open.size());
}

bool SessionServer::read_connection(const ConnectionPtr& conn) {
  const LineReader::Status filled = conn->reader.fill();
  if (filled != LineReader::Status::kPartial) {
    // EOF is a polite half-close — the client may still be reading, so
    // queued jobs keep writing their replies (the fd closes when the
    // last job's shared_ptr drops).  A read *error* is a dead peer: flag
    // it so in-flight trace streams stop early.
    if (filled == LineReader::Status::kError) conn->alive.store(false);
    return false;
  }
  std::string line;
  while (conn->alive.load()) {
    const LineReader::Status status = conn->reader.take_line(line);
    if (status == LineReader::Status::kPartial) return true;
    if (status == LineReader::Status::kOversized) {
      protocol_errors_.fetch_add(1);
      conn->write_lines(render_error_line(
          JsonValue(), kErrOversized,
          "request line exceeds " + std::to_string(options_.max_line_bytes) +
              " bytes"));
    } else if (!line.empty()) {  // blank keep-alive lines are ignored
      handle_line(conn, line);
    }
  }
  // A write failed: the peer is gone.  Writes to a vanished client fail
  // in write_lines (MSG_NOSIGNAL -> EPIPE), which flips `alive`.
  return false;
}

void SessionServer::worker_loop() {
  // One persistent engine pool per session worker, alive for the
  // server's lifetime: sessions attach to it through the thread-local
  // below (execute_run/execute_trace), so back-to-back requests reuse
  // warm threads instead of spawning per session.  The pool is
  // worker-local — a session never shares it with a concurrent session —
  // and always present, even with no extra thread (ShardPool(0)), so a
  // request's own `threads` field is always clamped to it by the engine
  // (effective shards = min(threads, participants)) and a session never
  // spawns threads of its own.
  ShardPool engine_pool(engine_threads_ - 1);
  tl_engine_pool = &engine_pool;
  for (;;) {
    std::optional<BoundedWorkQueue::Job> job = queue_.pop();
    if (!job.has_value()) break;  // closed and drained
    (*job)();
  }
  tl_engine_pool = nullptr;
}

void SessionServer::handle_line(const ConnectionPtr& conn,
                                const std::string& line) {
  requests_.fetch_add(1);
  Request req;
  try {
    req = parse_request(line);
  } catch (const RpcError& e) {
    reply_error(conn, e.id(), e.code(), e.what());
    return;
  }
  if (req.method == "run" || req.method == "trace") {
    handle_session_method(conn, req);
  } else if (req.method == "list") {
    conn->write_lines(render_result_line(req.id, list_payload()));
  } else if (req.method == "stats") {
    conn->write_lines(render_result_line(req.id, stats_payload()));
  } else if (req.method == "shutdown") {
    JsonValue result = JsonValue::object();
    result.as_object().emplace_back("draining", true);
    conn->write_lines(render_result_line(req.id, result));
    initiate_shutdown();
  } else {
    reply_error(conn, req.id, kErrInvalid,
                "unknown method '" + req.method +
                    "' (known: run, trace, list, stats, shutdown)");
  }
}

void SessionServer::handle_session_method(const ConnectionPtr& conn,
                                          const Request& req) {
  SessionRequest sreq;
  try {
    sreq = decode_session_params(req.params);
    // Cheap semantic validation on the event loop, so garbage never
    // occupies a queue slot: protocol exists, init family is supported,
    // the daemon name constructs.  Topology/ring constraints surface
    // from the session itself, as `invalid` replies.
    const ProtocolEntry& entry = ProtocolRegistry::instance().at(sreq.protocol);
    if (!sreq.spec.init.empty() && !entry.supports_init(sreq.spec.init)) {
      throw std::invalid_argument("protocol '" + sreq.protocol +
                                  "' does not support init '" +
                                  sreq.spec.init + "' (known: " +
                                  entry.info.inits_joined() + ")");
    }
    (void)make_daemon(sreq.spec.daemon, sreq.spec.seed);
  } catch (const RpcError& e) {
    reply_error(conn, req.id, e.code(), e.what());
    return;
  } catch (const std::invalid_argument& e) {
    reply_error(conn, req.id, kErrInvalid, e.what());
    return;
  }
  if (draining_.load()) {
    reply_error(conn, req.id, kErrShuttingDown, "server is draining");
    return;
  }
  const bool trace = req.method == "trace";
  const JsonValue id = req.id;
  const bool queued = queue_.try_push([this, conn, id, sreq, trace] {
    if (trace) {
      execute_trace(conn, id, sreq);
    } else {
      execute_run(conn, id, sreq);
    }
  });
  if (!queued) {
    if (queue_.closed()) {
      reply_error(conn, req.id, kErrShuttingDown, "server is draining");
    } else {
      busy_rejections_.fetch_add(1);
      reply_error(conn, req.id, kErrBusy,
                  "work queue full (" + std::to_string(queue_.capacity()) +
                      " pending); retry");
    }
  }
}

void SessionServer::execute_run(const ConnectionPtr& conn, const JsonValue& id,
                                const SessionRequest& sreq) {
  const std::string key = canonical_session_string(sreq);
  if (std::optional<std::string> payload = cache_.lookup(key)) {
    // Count before the write: a client holding its reply must never
    // observe a stats snapshot that has not seen its session.
    sessions_completed_.fetch_add(1);
    conn->write_lines(render_result_line_raw(id, *payload));
    return;
  }
  try {
    const ProtocolEntry& entry = ProtocolRegistry::instance().at(sreq.protocol);
    const std::shared_ptr<const TopologyInstance> topo =
        topology_for(sreq.topology);
    const VertexId diam =
        entry.needs_diameter ? instance_diameter(*topo) : 0;
    // Attach the worker's engine pool; the cache key above is oblivious
    // (the pool is an execution resource, not session identity).
    SessionSpec spec = sreq.spec;
    spec.pool = tl_engine_pool;
    const SessionResult result = entry.run_on(topo->graph, diam, spec);
    std::string payload = session_result_to_json(sreq, result, false).dump();
    const std::string line = render_result_line_raw(id, payload);
    // Insert before the reply: a client that repeats the request as soon
    // as it holds this reply must hit the cache.
    cache_.insert(key, std::move(payload));
    sessions_completed_.fetch_add(1);
    conn->write_lines(line);
  } catch (const std::invalid_argument& e) {
    reply_error(conn, id, kErrInvalid, e.what());
  } catch (const std::exception& e) {
    reply_error(conn, id, kErrInternal, e.what());
  }
}

void SessionServer::execute_trace(const ConnectionPtr& conn,
                                  const JsonValue& id,
                                  const SessionRequest& sreq) {
  try {
    const ProtocolEntry& entry = ProtocolRegistry::instance().at(sreq.protocol);
    const std::shared_ptr<const TopologyInstance> topo =
        topology_for(sreq.topology);
    SessionSpec spec = sreq.spec;
    spec.record_trace = true;
    spec.pool = tl_engine_pool;
    const VertexId diam =
        entry.needs_diameter ? instance_diameter(*topo) : 0;
    const SessionResult result = entry.run_on(topo->graph, diam, spec);
    if (!result.trace_config || !result.trace_delta ||
        result.trace_length == 0) {
      reply_error(conn, id, kErrInternal, "session produced no trace");
      return;
    }
    // Header carries the full result (so `trace` subsumes `run`), then
    // the stream: gamma_0, one delta per action, a terminator.  The lines
    // collect in `batch`, written whenever it reaches kTraceBatchBytes;
    // stop at the first failed write — the client is gone.
    std::string batch =
        render_result_line(id, session_result_to_json(sreq, result, true));
    append_trace_init_line(batch, id, result.trace_config(0));
    const StepIndex records = result.trace_length - 1;
    for (StepIndex a = 0; a < records; ++a) {
      if (batch.size() >= kTraceBatchBytes) {
        if (!conn->write_lines(batch)) return;
        batch.clear();
      }
      append_trace_delta_line(batch, id, a, result.trace_delta(a));
    }
    append_trace_end_line(batch, id, records);
    // Count before the write that carries the end line (see execute_run).
    sessions_completed_.fetch_add(1);
    (void)conn->write_lines(batch);
  } catch (const std::invalid_argument& e) {
    reply_error(conn, id, kErrInvalid, e.what());
  } catch (const std::exception& e) {
    reply_error(conn, id, kErrInternal, e.what());
  }
}

void SessionServer::reply_error(const ConnectionPtr& conn, const JsonValue& id,
                                std::string_view code,
                                const std::string& message) {
  protocol_errors_.fetch_add(1);
  conn->write_lines(render_error_line(id, code, message));
}

JsonValue SessionServer::list_payload() const {
  JsonValue out = JsonValue::object();
  JsonValue protocols = JsonValue::array();
  for (const ProtocolEntry& entry : ProtocolRegistry::instance().entries()) {
    JsonValue p = JsonValue::object();
    auto& fields = p.as_object();
    fields.emplace_back("name", entry.info.name);
    fields.emplace_back("description", entry.info.description);
    fields.emplace_back("state_model", entry.info.state_model);
    JsonValue inits = JsonValue::array();
    for (const auto& init : entry.info.inits) inits.as_array().push_back(init);
    fields.emplace_back("inits", std::move(inits));
    fields.emplace_back("ring_only", entry.info.ring_only);
    fields.emplace_back("silent", entry.info.silent);
    protocols.as_array().push_back(std::move(p));
  }
  out.as_object().emplace_back("protocols", std::move(protocols));
  JsonValue daemons = JsonValue::array();
  for (const DaemonInfo& info : daemon_catalog()) {
    JsonValue d = JsonValue::object();
    d.as_object().emplace_back("name", info.name);
    d.as_object().emplace_back("description", info.description);
    d.as_object().emplace_back("randomized", info.randomized);
    daemons.as_array().push_back(std::move(d));
  }
  out.as_object().emplace_back("daemons", std::move(daemons));
  JsonValue methods = JsonValue::array();
  for (const char* m : {"run", "trace", "list", "stats", "shutdown"}) {
    methods.as_array().push_back(m);
  }
  out.as_object().emplace_back("methods", std::move(methods));
  return out;
}

JsonValue SessionServer::stats_payload() const {
  const Stats s = stats();
  JsonValue out = JsonValue::object();
  auto& fields = out.as_object();
  fields.emplace_back("connections_accepted",
                      static_cast<std::int64_t>(s.connections_accepted));
  fields.emplace_back("active_connections",
                      static_cast<std::int64_t>(s.active_connections));
  fields.emplace_back("requests", static_cast<std::int64_t>(s.requests));
  fields.emplace_back("sessions_completed",
                      static_cast<std::int64_t>(s.sessions_completed));
  fields.emplace_back("busy_rejections",
                      static_cast<std::int64_t>(s.busy_rejections));
  fields.emplace_back("protocol_errors",
                      static_cast<std::int64_t>(s.protocol_errors));
  fields.emplace_back("queue_depth", static_cast<std::int64_t>(s.queue_depth));
  fields.emplace_back("queue_capacity",
                      static_cast<std::int64_t>(s.queue_capacity));
  JsonValue cache = JsonValue::object();
  auto& cf = cache.as_object();
  cf.emplace_back("hits", static_cast<std::int64_t>(s.cache.hits));
  cf.emplace_back("misses", static_cast<std::int64_t>(s.cache.misses));
  cf.emplace_back("evictions", static_cast<std::int64_t>(s.cache.evictions));
  cf.emplace_back("insertions", static_cast<std::int64_t>(s.cache.insertions));
  cf.emplace_back("oversized_skips",
                  static_cast<std::int64_t>(s.cache.oversized_skips));
  cf.emplace_back("entries", static_cast<std::int64_t>(s.cache.entries));
  cf.emplace_back("resident_bytes",
                  static_cast<std::int64_t>(s.cache.resident_bytes));
  cf.emplace_back("max_bytes", static_cast<std::int64_t>(s.cache.max_bytes));
  out.as_object().emplace_back("cache", std::move(cache));
  return out;
}

std::shared_ptr<const SessionServer::TopologyInstance>
SessionServer::topology_for(const std::string& canonical) {
  {
    const std::lock_guard<std::mutex> lock(topologies_mutex_);
    const auto it = topologies_.find(canonical);
    if (it != topologies_.end()) return it->second;
  }
  // Build outside the lock: graph instantiation can be slow, and two
  // workers racing the same topology just agree on identical instances
  // (first insert wins, both valid).
  const std::vector<std::string> tokens = topology_tokens(canonical);
  std::size_t pos = 0;
  auto instance = std::make_shared<TopologyInstance>();
  instance->graph = cli::graph_from_spec(tokens, pos);
  if (pos != tokens.size()) {
    throw std::invalid_argument("trailing tokens in topology '" + canonical +
                                "'");
  }
  const std::lock_guard<std::mutex> lock(topologies_mutex_);
  auto [it, inserted] = topologies_.emplace(canonical, std::move(instance));
  (void)inserted;
  return it->second;
}

}  // namespace specstab::serve
