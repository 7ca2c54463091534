#include "sim/parallel_engine.hpp"

#include <stdexcept>

namespace specstab {
namespace {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Phases on the dense hot path arrive back-to-back (microseconds apart),
// so both sides spin this many iterations before parking on the futex.
// Large enough that a running phase pipeline never parks, small enough
// that an idle pool (serve worker between requests, campaign worker on a
// sequential protocol) yields its cores within ~10us.
constexpr int kSpinLimit = 4096;

}  // namespace

std::string_view engine_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kIncremental:
      return "incremental";
    case EngineKind::kReference:
      return "reference";
  }
  throw std::invalid_argument("unknown EngineKind");
}

EngineKind engine_by_name(const std::string& name) {
  if (name == "incremental" || name == "parallel" || name == "vector") {
    return EngineKind::kIncremental;
  }
  if (name == "reference") return EngineKind::kReference;
  throw std::invalid_argument(
      "unknown engine '" + name +
      "' (incremental | reference; parallel and vector are synonyms of "
      "incremental)");
}

namespace {

// True iff a and b have the same neighbour offsets: equal degrees and
// nbrs(a)[j] - a == nbrs(b)[j] - b for every j.
bool same_offsets(const Graph& g, VertexId a, VertexId b) {
  const auto na = g.neighbors(a);
  const auto nb = g.neighbors(b);
  if (na.size() != nb.size()) return false;
  for (std::size_t j = 0; j < na.size(); ++j) {
    if (na[j] - a != nb[j] - b) return false;
  }
  return true;
}

}  // namespace

LatticeStencil lattice_stencil(const Graph& g) {
  // Boyer-Moore vote: a list shared by more than half the vertices
  // survives as the candidate.
  VertexId candidate = 0;
  VertexId votes = 0;
  for (VertexId v = 0; v < g.n(); ++v) {
    if (votes == 0) {
      candidate = v;
      votes = 1;
    } else {
      votes += same_offsets(g, candidate, v) ? 1 : -1;
    }
  }
  LatticeStencil out;
  if (g.n() == 0 || g.degree(candidate) == 0) return out;
  std::int64_t shared = 0;
  for (VertexId v = 0; v < g.n(); ++v) {
    shared += same_offsets(g, candidate, v) ? 1 : 0;
  }
  if (2 * shared < g.n()) return out;
  for (const VertexId u : g.neighbors(candidate)) {
    out.offsets.push_back(u - candidate);
  }
  out.irregular.reserve(static_cast<std::size_t>(g.n() - shared));
  for (VertexId v = 0; v < g.n(); ++v) {
    if (!same_offsets(g, candidate, v)) out.irregular.push_back(v);
  }
  return out;
}

ShardPool::ShardPool(unsigned extra_workers) {
  if (extra_workers == 0) return;  // inline-only: nothing to spawn or tune
  // Spinning assumes the peer making progress owns another core.  When
  // the pool oversubscribes the host (more threads than hardware — CI
  // smoke runs at 16 threads on small runners, the differential suites
  // exercise 16-thread pools anywhere), a spinning thread only burns the
  // scheduler quantum the *working* thread needs, turning every phase
  // into kSpinLimit pauses times participants; parking immediately hands
  // the core over for the cost of one futex syscall instead.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  spin_limit_ = hw > extra_workers ? kSpinLimit : 0;
  workers_.reserve(extra_workers);
  for (unsigned i = 0; i < extra_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ShardPool::~ShardPool() {
  if (!workers_.empty()) {
    stop_ = true;
    // The epoch bump publishes stop_; workers observing the new epoch
    // read stop_ and return without touching remaining_.
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    epoch_.notify_all();
    for (auto& w : workers_) w.join();
  }
}

void ShardPool::run(std::size_t active,
                    const std::function<void(std::size_t)>& fn) {
  assert(active >= 1 && active <= participants());
  if (active <= 1 || workers_.empty()) {
    // Single-shard runs bypass the barrier entirely: parked workers are
    // not woken, no atomics are touched.
    for (std::size_t k = 0; k < active; ++k) fn(k);
    return;
  }
  // Publish the phase, then open the barrier.  All plain members are
  // written before the seq_cst epoch bump and read by workers after
  // their acquire load observes it.  Every worker participates in the
  // countdown (inactive ones just decrement), so remaining_ always
  // starts at the full worker count.
  fn_ = &fn;
  active_ = active;
  remaining_.store(workers_.size(), std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) != 0) epoch_.notify_all();

  fn(0);

  // Completion: spin briefly for the stragglers, then park.  The
  // caller_parked_ flag tells the last finishing worker a futex wake is
  // needed; seq_cst ordering on both sides makes the flag-set/recheck
  // vs decrement/flag-read handshake lossless (one of the two always
  // observes the other), and atomic::wait re-checks the value under the
  // futex lock so the final decrement never slips between our load and
  // the park.
  for (int spin = 0; spin < spin_limit_; ++spin) {
    if (remaining_.load(std::memory_order_acquire) == 0) return;
    cpu_relax();
  }
  caller_parked_.store(true, std::memory_order_seq_cst);
  std::size_t r = remaining_.load(std::memory_order_seq_cst);
  while (r != 0) {
    remaining_.wait(r, std::memory_order_seq_cst);
    r = remaining_.load(std::memory_order_seq_cst);
  }
  caller_parked_.store(false, std::memory_order_relaxed);
}

void ShardPool::worker_loop(std::size_t self) {
  std::uint64_t seen = 0;
  for (;;) {
    // Wait for the next phase: bounded spin on the epoch, then park.
    // The parked_ counter tells run() whether notify_all() is needed;
    // seq_cst on the increment vs the caller's bump-then-check keeps
    // that handshake lossless too.
    std::uint64_t e = epoch_.load(std::memory_order_acquire);
    if (e == seen) {
      for (int spin = 0; spin < spin_limit_ && e == seen; ++spin) {
        cpu_relax();
        e = epoch_.load(std::memory_order_acquire);
      }
      if (e == seen) {
        parked_.fetch_add(1, std::memory_order_seq_cst);
        e = epoch_.load(std::memory_order_seq_cst);
        while (e == seen) {
          epoch_.wait(seen, std::memory_order_seq_cst);
          e = epoch_.load(std::memory_order_seq_cst);
        }
        parked_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    seen = e;
    if (stop_) return;
    if (self + 1 < active_) (*fn_)(self + 1);
    // Last worker out wakes a parked caller.  The seq_cst decrement is
    // also the release that publishes this shard's writes to the caller.
    if (remaining_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        caller_parked_.load(std::memory_order_seq_cst)) {
      remaining_.notify_all();
    }
  }
}

}  // namespace specstab
