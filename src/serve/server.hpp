// The `specstab serve` session service: a long-lived process answering
// line-delimited JSON-RPC (serve/wire.hpp) over TCP-loopback or
// unix-domain sockets.
//
// Thread structure, whatever the number of connections:
//   - one event-loop thread whose poll() watches the wake pipe, the stop
//     fd, the listener and every open connection; it accepts, reads and
//     parses/validates request lines, answers `list`/`stats`/errors
//     inline and enqueues session jobs;
//   - a persistent worker pool draining the bounded work queue
//     (serve/queue.hpp) — the campaign runner's pool idiom with a queue
//     instead of a precomputed scenario list, because requests arrive
//     over time.
//
// Backpressure: a full queue turns into an immediate `busy` error reply
// from the event loop; nothing blocks, nothing is dropped silently.  A
// server out of fds stops watching the listener for a short pause and
// keeps serving its open connections, so a pending client is accepted
// once an fd frees up.
//
// Shutdown (SIGTERM via ServeOptions::stop_fd, or the `shutdown`
// method) drains gracefully: the loop stops accepting but keeps reading
// (session requests get `shutting-down`), wait() seals the queue and
// lets the workers finish every accepted job (each client still gets
// its reply), then stops the loop, which drops the connections.  The
// CI serve job asserts this sequencing end to end.
//
// Results are served from a byte-LRU cache (serve/cache.hpp) keyed on
// the canonical session tuple; topology instances (the graph plus its
// lazily computed diameter) are cached across sessions the same way the
// campaign runner caches them across scenarios.
#ifndef SPECSTAB_SERVE_SERVER_HPP
#define SPECSTAB_SERVE_SERVER_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph.hpp"
#include "serve/cache.hpp"
#include "serve/queue.hpp"
#include "serve/transport.hpp"
#include "serve/wire.hpp"

namespace specstab::serve {

struct ServeOptions {
  Endpoint endpoint = Endpoint::tcp(0);
  /// Session worker threads; 0 picks the hardware concurrency.  This
  /// sizes the *worker pool only* — how many sessions run concurrently —
  /// not how many threads one session uses; see engine_threads.
  unsigned threads = 0;
  /// Engine threads available to each session worker: every worker
  /// keeps one persistent ShardPool of this size and hands it to its
  /// sessions, so requests reuse warm threads and never spawn their own.
  /// A request's own `threads` field still picks its shard count per
  /// session, clamped to this pool — the effective engine parallelism is
  /// min(request threads, engine_threads).  0 (default) auto-sizes to
  /// hardware_concurrency / worker count (at least 1), so workers ×
  /// engine threads never oversubscribes the host; results are
  /// byte-identical regardless.
  unsigned engine_threads = 0;
  std::size_t cache_bytes = 64u << 20;
  std::size_t queue_capacity = 256;
  std::size_t max_line_bytes = 1u << 20;
  /// When >= 0, a readable byte on this fd initiates shutdown — the CLI
  /// wires its SIGTERM/SIGINT self-pipe here.
  int stop_fd = -1;
};

class SessionServer {
 public:
  explicit SessionServer(ServeOptions options);
  ~SessionServer();
  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Binds the endpoint and starts the worker pool and event loop;
  /// returns once the server is reachable.  Throws std::runtime_error
  /// when the endpoint cannot be bound.
  void start();

  /// The bound TCP port (after start(); resolves `--port 0`).
  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] const Endpoint& endpoint() const;
  /// Session workers started (after start(); resolves `threads` 0).
  [[nodiscard]] unsigned worker_threads() const {
    return static_cast<unsigned>(workers_.size());
  }
  /// Engine-pool participants per worker (after start(); resolves
  /// `engine_threads` 0).
  [[nodiscard]] unsigned engine_threads() const { return engine_threads_; }

  /// Requests shutdown (idempotent, safe from any thread); wait()
  /// performs the drain.
  void initiate_shutdown();

  /// Blocks until shutdown is requested, then drains: seals the queue,
  /// joins the workers (finishing every accepted job), then stops and
  /// joins the event loop, which closes the connections.
  void wait();

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t active_connections = 0;
    std::uint64_t requests = 0;          ///< parsed request lines
    std::uint64_t sessions_completed = 0;  ///< run + trace jobs finished
    std::uint64_t busy_rejections = 0;
    std::uint64_t protocol_errors = 0;   ///< parse/invalid/oversized replies
    std::size_t queue_depth = 0;
    std::size_t queue_capacity = 0;
    ResultCache::Stats cache;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Connection;
  /// The per-topology artifacts, built once and shared across sessions
  /// (the campaign runner's caching pattern); concurrent sessions read
  /// the immutable graph without a lock.  The diameter is computed
  /// lazily, the first time a protocol that reads it runs on the
  /// topology: diameter() throws on disconnected graphs (only file-loaded
  /// ones can be), and protocols that never look at it should still run
  /// there (as ProtocolEntry::run does).
  struct TopologyInstance {
    Graph graph;
    mutable std::once_flag diameter_once;
    mutable VertexId diameter = 0;
  };
  using ConnectionPtr = std::shared_ptr<Connection>;

  void event_loop();
  /// One recv() on a readable connection, then every complete line to
  /// handle_line(); false once the connection is finished with.
  bool read_connection(const ConnectionPtr& conn);
  void worker_loop();
  void handle_line(const ConnectionPtr& conn, const std::string& line);
  void handle_session_method(const ConnectionPtr& conn, const Request& req);
  void execute_run(const ConnectionPtr& conn, const JsonValue& id,
                   const SessionRequest& sreq);
  void execute_trace(const ConnectionPtr& conn, const JsonValue& id,
                     const SessionRequest& sreq);
  void reply_error(const ConnectionPtr& conn, const JsonValue& id,
                   std::string_view code, const std::string& message);
  [[nodiscard]] JsonValue list_payload() const;
  [[nodiscard]] JsonValue stats_payload() const;
  /// Cached instance for a canonical topology spelling; builds the
  /// graph on first use.  Throws std::invalid_argument on malformed
  /// specs.
  [[nodiscard]] std::shared_ptr<const TopologyInstance> topology_for(
      const std::string& canonical);
  [[nodiscard]] static VertexId instance_diameter(const TopologyInstance& topo);

  ServeOptions options_;
  /// ServeOptions::engine_threads resolved against the worker count at
  /// start() (the 0 = auto rule); what each worker sizes its pool to.
  unsigned engine_threads_ = 1;
  std::unique_ptr<Listener> listener_;
  BoundedWorkQueue queue_;
  ResultCache cache_;

  // Event-loop wake self-pipe: initiate_shutdown() writes when the drain
  // begins and wait() writes when the loop should exit.
  Fd wake_read_;
  Fd wake_write_;

  std::thread loop_;
  std::vector<std::thread> workers_;

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  /// Set once by initiate_shutdown(), under shutdown_mutex_.
  std::atomic<bool> draining_{false};
  std::atomic<bool> loop_exit_{false};
  bool started_ = false;
  bool drained_ = false;

  mutable std::mutex topologies_mutex_;
  std::map<std::string, std::shared_ptr<const TopologyInstance>> topologies_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> active_connections_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> sessions_completed_{0};
  std::atomic<std::uint64_t> busy_rejections_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
};

}  // namespace specstab::serve

#endif  // SPECSTAB_SERVE_SERVER_HPP
