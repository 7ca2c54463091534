// Session result cache: canonical-key -> rendered reply payload, LRU by
// resident bytes.
//
// The cached value is the *serialized* result object (the exact JSON the
// reply line carries), not the SessionResult: a hit is served by pasting
// the stored bytes into the reply, so cache-hit replies are
// byte-identical to cold-miss replies by construction — the equivalence
// suite still proves it end to end.  Caching rendered bytes also makes
// the eviction accounting exact instead of estimated.
//
// Keys are canonical_session_string() (protocol + topology + the
// SessionSpec canonical text) — the full string, never a hash of it, so
// no collision can serve the wrong session's bytes.
//
// Sessions here are deterministic functions of their canonical key (the
// differential suites hold every engine and thread count to
// byte-identical results), so cached entries never go stale: eviction
// exists purely to bound memory.
#ifndef SPECSTAB_SERVE_CACHE_HPP
#define SPECSTAB_SERVE_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace specstab::serve {

class ResultCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
    std::uint64_t oversized_skips = 0;  ///< payloads larger than the cache
    std::size_t entries = 0;
    std::size_t resident_bytes = 0;
    std::size_t max_bytes = 0;
  };

  /// max_bytes 0 disables caching (every lookup is a miss, inserts are
  /// dropped) — `specstab serve --cache-mb 0`.
  explicit ResultCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  [[nodiscard]] std::optional<std::string> lookup(const std::string& key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    // Most-recently-used to the front.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->payload;
  }

  /// Inserts (or refreshes) an entry, evicting least-recently-used
  /// entries until the resident total fits.  A payload that alone
  /// exceeds the budget is skipped, not cached (inserting it would evict
  /// the whole cache for a single entry).
  void insert(const std::string& key, std::string payload) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t bytes = entry_bytes(key, payload);
    if (bytes > max_bytes_) {
      ++oversized_skips_;
      return;
    }
    const auto it = index_.find(key);
    if (it != index_.end()) {
      // Deterministic sessions: a re-insert carries identical bytes.
      // Refresh recency only.
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    while (resident_bytes_ + bytes > max_bytes_ && !lru_.empty()) {
      const Entry& victim = lru_.back();
      resident_bytes_ -= entry_bytes(victim.key, victim.payload);
      index_.erase(victim.key);
      lru_.pop_back();
      ++evictions_;
    }
    lru_.push_front(Entry{key, std::move(payload)});
    index_[key] = lru_.begin();
    resident_bytes_ += bytes;
    ++insertions_;
  }

  [[nodiscard]] Stats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    Stats out;
    out.hits = hits_;
    out.misses = misses_;
    out.evictions = evictions_;
    out.insertions = insertions_;
    out.oversized_skips = oversized_skips_;
    out.entries = index_.size();
    out.resident_bytes = resident_bytes_;
    out.max_bytes = max_bytes_;
    return out;
  }

 private:
  struct Entry {
    std::string key;
    std::string payload;
  };

  /// Resident accounting: key + payload bytes plus a flat per-entry
  /// overhead for the list node and index slot.
  [[nodiscard]] static std::size_t entry_bytes(const std::string& key,
                                               const std::string& payload) {
    return key.size() + payload.size() + 96;
  }

  const std::size_t max_bytes_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::size_t resident_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t oversized_skips_ = 0;
};

}  // namespace specstab::serve

#endif  // SPECSTAB_SERVE_CACHE_HPP
