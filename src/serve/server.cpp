#include "serve/server.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <utility>

#include "cli/cli.hpp"
#include "graph/properties.hpp"
#include "sim/daemon.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/protocol_registry.hpp"

namespace specstab::serve {

namespace {

/// The executing worker's persistent parallel-engine pool (set by
/// worker_loop for its lifetime); sessions attach it to their spec.
thread_local ShardPool* tl_engine_pool = nullptr;

/// Splits a canonical topology spelling back into CLI tokens.
[[nodiscard]] std::vector<std::string> topology_tokens(
    const std::string& canonical) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos < canonical.size()) {
    const std::size_t space = canonical.find(' ', pos);
    const std::size_t end = space == std::string::npos ? canonical.size() : space;
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

/// Per-connection state shared between its reader thread and the
/// workers serving its queued requests.  Replies from concurrent
/// workers interleave at line granularity only (write_mutex); `alive`
/// flips false on the first failed write or reader exit, after which
/// every further write is a cheap no-op — a half-streamed trace to a
/// vanished client stops without tearing anything down.
struct SessionServer::Connection {
  Fd fd;
  std::mutex write_mutex;
  std::atomic<bool> alive{true};

  explicit Connection(Fd fd_in) : fd(std::move(fd_in)) {}

  bool write_line(const std::string& line) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    if (!alive.load(std::memory_order_relaxed)) return false;
    if (!write_all(fd.get(), line)) {
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
  acceptor_ = std::thread([this] { acceptor_loop(); });
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
    if (shutdown_requested_) return;
    shutdown_requested_ = true;
    // From this moment no new session is accepted; already-queued jobs
    // still drain and answer.
    draining_.store(true);
  }
  shutdown_cv_.notify_all();
  if (wake_write_.valid()) {
    const char byte = 1;
    ssize_t rc;
    do {
      rc = ::write(wake_write_.get(), &byte, 1);
    } while (rc == -1 && errno == EINTR);
  }
}

void SessionServer::wait() {
  {
    std::unique_lock<std::mutex> lock(shutdown_mutex_);
    shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
    if (drained_) return;
  }
  if (acceptor_.joinable()) acceptor_.join();
  // Seal the queue, then let the workers finish every accepted job —
  // clients whose requests were queued before the drain began still get
  // their replies.
  queue_.close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // Only now unblock readers parked in recv(); their connections carry
  // no pending replies anymore.
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& conn : connections_) {
      conn->alive.store(false);
      shutdown_fd(conn->fd.get());
    }
  }
  std::vector<std::thread> readers;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    readers.swap(readers_);
  }
  for (auto& reader : readers) {
    if (reader.joinable()) reader.join();
  }
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.clear();
  }
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

void SessionServer::acceptor_loop() {
  // One poll target only, so the external stop fd (the CLI's signal
  // pipe) is watched by a tiny side loop that folds it into the same
  // initiate_shutdown() path.
  std::thread stop_watcher;
  if (options_.stop_fd >= 0) {
    stop_watcher = std::thread([this] {
      pollfd fds[2];
      fds[0].fd = options_.stop_fd;
      fds[0].events = POLLIN;
      fds[1].fd = wake_read_.get();
      fds[1].events = POLLIN;
      for (;;) {
        fds[0].revents = 0;
        fds[1].revents = 0;
        const int rc = ::poll(fds, 2, -1);
        if (rc == -1 && errno == EINTR) continue;
        break;
      }
      if ((fds[0].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        initiate_shutdown();
      }
    });
  }
  for (;;) {
    Fd conn_fd = listener_->accept_next(wake_read_.get());
    if (!conn_fd.valid()) break;
    if (draining_.load()) break;  // raced a late connection past the wake
    auto conn = std::make_shared<Connection>(std::move(conn_fd));
    connections_accepted_.fetch_add(1);
    active_connections_.fetch_add(1);
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.push_back(conn);
    readers_.emplace_back([this, conn] { reader_loop(conn); });
  }
  // Shutdown first (idempotent; also covers listener failure paths): the
  // wake byte it writes is what unparks the watcher for the join below.
  initiate_shutdown();
  if (stop_watcher.joinable()) stop_watcher.join();
}

void SessionServer::reader_loop(ConnectionPtr conn) {
  LineReader reader(conn->fd.get(), options_.max_line_bytes);
  std::string line;
  for (;;) {
    const LineReader::Status status = reader.read_line(line);
    if (status == LineReader::Status::kEof ||
        status == LineReader::Status::kError) {
      // EOF is a polite half-close — the client may still be reading,
      // so queued jobs keep writing their replies (the fd closes when
      // the last job's shared_ptr drops).  A read *error* is a dead
      // peer: flag it so in-flight trace streams stop early.
      if (status == LineReader::Status::kError) conn->alive.store(false);
      break;
    }
    if (!conn->alive.load()) break;
    if (status == LineReader::Status::kOversized) {
      protocol_errors_.fetch_add(1);
      conn->write_line(render_error_line(
          JsonValue(), kErrOversized,
          "request line exceeds " + std::to_string(options_.max_line_bytes) +
              " bytes"));
      continue;
    }
    if (line.empty()) continue;  // blank keep-alive lines are ignored
    handle_line(conn, line);
  }
  active_connections_.fetch_sub(1);
  // Drop the registry's reference; queued jobs for this connection keep
  // it (and the fd) alive via their own shared_ptr.  Writes to a
  // vanished client fail in write_line (MSG_NOSIGNAL -> EPIPE), which
  // flips `alive` and no-ops the rest.
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  connections_.erase(
      std::remove(connections_.begin(), connections_.end(), conn),
      connections_.end());
}

void SessionServer::worker_loop() {
  // One persistent engine pool per session worker, alive for the
  // server's lifetime: parallel-engine sessions attach to it through
  // the thread-local below (execute_run/execute_trace), so back-to-back
  // requests reuse warm threads instead of spawning per session.  The
  // pool is worker-local — a session never shares it with a concurrent
  // session, and a request's own `threads` field is clamped to it by
  // the engine (effective shards = min(threads, participants)).
  std::optional<ShardPool> engine_pool;
  if (engine_threads_ > 1) engine_pool.emplace(engine_threads_ - 1);
  tl_engine_pool = engine_pool ? &*engine_pool : nullptr;
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
    conn->write_line(render_result_line(req.id, list_payload()));
  } else if (req.method == "stats") {
    conn->write_line(render_result_line(req.id, stats_payload()));
  } else if (req.method == "shutdown") {
    JsonValue result = JsonValue::object();
    result.as_object().emplace_back("draining", true);
    conn->write_line(render_result_line(req.id, result));
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
    // Cheap semantic validation on the reader thread, so garbage never
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
    conn->write_line(render_result_line_raw(id, *payload));
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
    conn->write_line(line);
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
    // the stream: gamma_0, one delta per action, a terminator.  Stop at
    // the first failed write — the client is gone.
    if (!conn->write_line(render_result_line(
            id, session_result_to_json(sreq, result, true)))) {
      return;
    }
    if (!conn->write_line(render_trace_init_line(id, result.trace_config(0)))) {
      return;
    }
    const StepIndex records = result.trace_length - 1;
    for (StepIndex a = 0; a < records; ++a) {
      if (!conn->write_line(
              render_trace_delta_line(id, a, result.trace_delta(a)))) {
        return;
      }
    }
    sessions_completed_.fetch_add(1);
    (void)conn->write_line(render_trace_end_line(id, records));
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
  conn->write_line(render_error_line(id, code, message));
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
