// Configuration storage.
//
// A configuration assigns a state to every vertex.  Every state type is
// stored the same way: one std::vector<State>.  The production engine
// owns that vector in a ConfigStore, next to one double buffer for dense
// installs, and can install a whole next configuration with a buffer
// swap (ConfigStore::swap_in).  The reference engine keeps a plain
// vector of its own, so the oracle shares no storage code with the
// engine it checks.
//
// Consumers never touch the backing vectors.  They read through
// ConfigView<State>, a one-pointer proxy offering get()/operator[],
// column() (the raw vector data, for guard kernels) and
// materialize(); engines mutate through ConfigStore::set() and the
// dense_begin()/dense_fill_range()/dense_commit() buffer-swap path.
#ifndef SPECSTAB_SIM_CONFIG_STORE_HPP
#define SPECSTAB_SIM_CONFIG_STORE_HPP

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/types.hpp"

namespace specstab {

template <class State>
class ConfigStore;

/// Non-owning, trivially copyable read proxy over one configuration,
/// backed either by a plain std::vector<State> or by a ConfigStore.  This
/// is the type protocols, legitimacy checkers, observers and trace
/// recording consume:
///
///   cfg[v] / cfg.get(v)   state of v;
///   cfg.column()          the contiguous states, never null;
///   cfg.materialize()     full vector copy (trace snapshots, digests).
///
/// A view over a plain vector (implicit) makes every configuration
/// literal, helper and the reference engine's configuration interoperate,
/// and the view converts back to the vector, so vector-shaped helpers
/// keep working behind the proxy.
template <class State>
class ConfigView {
 public:
  /* implicit */ ConfigView(const Config<State>& vec) : vec_(&vec) {}

  /* implicit */ ConfigView(const ConfigStore<State>& store)
      : vec_(&store.backing()) {}

  [[nodiscard]] std::size_t size() const { return vec_->size(); }
  [[nodiscard]] VertexId n() const { return static_cast<VertexId>(size()); }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] State get(std::size_t i) const {
    assert(i < size());
    return (*vec_)[i];
  }
  [[nodiscard]] State operator[](std::size_t i) const { return get(i); }

  /// Pointer to the contiguous states — the access pattern the guard
  /// kernels (sim/simd_eval.hpp) want.
  [[nodiscard]] const State* column() const { return vec_->data(); }

  /// Full vector copy of the viewed configuration.
  [[nodiscard]] Config<State> materialize() const { return *vec_; }

  /* implicit */ operator const Config<State>&() const { return *vec_; }

 private:
  const Config<State>* vec_ = nullptr;
};

/// Owning configuration storage for the production engine: the live
/// vector plus one double buffer for dense installs.  The engine holds
/// one ConfigStore for the whole run, mutates it through set() or the
/// dense install below, and hands ConfigView to every consumer.  A view
/// points at the live vector object, whose contents the buffer swaps
/// exchange, so one view stays current for the whole run.
template <class State>
class ConfigStore {
 public:
  ConfigStore() = default;

  explicit ConfigStore(Config<State> init) : data_(std::move(init)) {}

  [[nodiscard]] ConfigView<State> view() const {
    return ConfigView<State>(*this);
  }

  [[nodiscard]] State get(std::size_t i) const { return data_[i]; }

  void set(std::size_t i, const State& s) { data_[i] = s; }

  // --- Sharded dense install ----------------------------------------------
  //
  // Composite atomicity over a dense step without a full configuration
  // copy or scattered in-place writes, in three phases whose merge pass
  // fans out over contiguous index ranges: dense_begin() sizes the
  // inactive double buffer (a no-op after the first dense step), each
  // shard calls dense_fill_range() over its own range — segment copies
  // of the gaps plus the pre-computed successor states of the activated
  // vertices inside the range — and dense_commit() swaps the buffers in.
  // Ranges must partition [0, n); concurrent fill calls on disjoint
  // ranges are data-race-free (disjoint writes into the inactive buffer,
  // reads from the still-live one).  `staged` is indexed like
  // `activated` (staged[a] is the successor of activated[a]); [a_lo,
  // a_hi) is the activated subrange lying inside [begin, end), and
  // `activated` is sorted.  Every other vertex carries its state over,
  // so a range costs end - begin writes, nothing written twice.

  void dense_begin() { next_.resize(data_.size()); }

  void dense_fill_range(const std::vector<VertexId>& activated,
                        const State* staged, std::size_t a_lo,
                        std::size_t a_hi, std::size_t begin,
                        std::size_t end) {
    const State* live = data_.data();
    State* out = next_.data();
    std::size_t done = begin;
    for (std::size_t a = a_lo; a < a_hi; ++a) {
      const auto i = static_cast<std::size_t>(activated[a]);
      std::copy(live + done, live + i, out + done);
      out[i] = staged[a];
      done = i + 1;
    }
    std::copy(live + done, live + end, out + done);
  }

  void dense_commit() { data_.swap(next_); }

  /// Installs a complete next configuration by swapping its vector with
  /// the live one (O(1)); `next` receives the previous configuration,
  /// and must hold as many states.
  void swap_in(Config<State>& next) {
    assert(next.size() == data_.size());
    data_.swap(next);
  }

  /// Full vector copy-out.
  [[nodiscard]] Config<State> materialize() const { return data_; }

  /// Moves the configuration out.  Leaves the store empty.
  [[nodiscard]] Config<State> take() { return std::move(data_); }

  /// The live vector (ConfigView's store constructor reads it).
  [[nodiscard]] const Config<State>& backing() const { return data_; }

 private:
  Config<State> data_;  // the live configuration
  Config<State> next_;  // dense install double buffer
};

}  // namespace specstab

#endif  // SPECSTAB_SIM_CONFIG_STORE_HPP
