// Bounded work queue between the serve event loop, which parses every
// connection's requests, and the session worker pool.
//
// Backpressure is explicit and synchronous: try_push() never blocks and
// returns false when the queue is at capacity (or closed), at which
// point the event loop replies `busy` to the client on the spot — a request
// is either queued and will be answered, or rejected and the client is
// told, never silently dropped.  close() seals the producer side while
// letting consumers drain what was accepted: pop() keeps returning
// queued jobs until the queue is empty *and* closed, which is exactly
// the graceful-drain contract the serve shutdown path (and the CI
// SIGTERM gate) relies on.
#ifndef SPECSTAB_SERVE_QUEUE_HPP
#define SPECSTAB_SERVE_QUEUE_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>

namespace specstab::serve {

class BoundedWorkQueue {
 public:
  using Job = std::function<void()>;

  explicit BoundedWorkQueue(std::size_t capacity)
      : capacity_(capacity > 0 ? capacity : 1) {}

  /// Non-blocking enqueue; false when full or closed (the caller owes
  /// the client an explicit `busy` / `shutting-down` reply).
  [[nodiscard]] bool try_push(Job job) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || jobs_.size() >= capacity_) return false;
      jobs_.push_back(std::move(job));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocks until a job is available or the queue is closed and empty;
  /// nullopt means "drained, worker should exit".
  [[nodiscard]] std::optional<Job> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || !jobs_.empty(); });
    if (jobs_.empty()) return std::nullopt;
    Job job = std::move(jobs_.front());
    jobs_.pop_front();
    return job;
  }

  /// Seals the producer side; queued jobs still drain through pop().
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t depth() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return jobs_.size();
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Job> jobs_;
  bool closed_ = false;
};

}  // namespace specstab::serve

#endif  // SPECSTAB_SERVE_QUEUE_HPP
