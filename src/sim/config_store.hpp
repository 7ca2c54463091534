// Configuration storage, one layout per state type.
//
// A configuration assigns a state to every vertex.  How those states are
// *stored* never changes a result, only memory traffic: the engine's
// guard re-tests stream the states of whole neighborhoods, and for a
// multi-field state one std::vector<State> drags every field through the
// cache on each guard read.  So the state type decides its layout:
//
//   - a state that declares SoaFields<State> is stored as one contiguous
//     column per declared member;
//   - every other state is stored as one std::vector<State>.  For
//     arithmetic states that vector *is* the single column, and the
//     engine can install a whole next configuration with a buffer swap
//     (ConfigStore::swap_in).
//
// Consumers never touch the backing vectors.  They read through
// ConfigView<State>, a two-pointer proxy offering get()/operator[]
// (whole-state reads), field<I>() (column reads for guard scans) and
// materialize(); engines mutate through ConfigStore::set() and the
// dense_begin()/dense_fill_range()/dense_commit() buffer-swap path.
// States round-trip bit-identically through the columns, so results
// (digests, delta traces) match the reference engine, which keeps its
// configuration in a plain vector; the differential suites assert that.
//
// Declaring a split for a new multi-field state:
//
//   template <>
//   struct SoaFields<MyState> {
//     static constexpr auto members =
//         std::make_tuple(&MyState::a, &MyState::b);
//   };
//
// The columns are the whole representation, so a split must name every
// member of the struct; one that leaves a member out (or a struct with
// padding) fails to build.
#ifndef SPECSTAB_SIM_CONFIG_STORE_HPP
#define SPECSTAB_SIM_CONFIG_STORE_HPP

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/types.hpp"

namespace specstab {

/// Trait declaring the column split of a state type.  The primary
/// template declares nothing: such states are stored as one vector.
/// Specializations declare a `members` tuple of pointers to every member
/// of the struct, one column each.
template <class State>
struct SoaFields {};

/// State declares a column split.
template <class State>
concept HasStructSplit = requires { SoaFields<State>::members; };

namespace detail {

/// Empty placeholder for the columns of states without a split (the
/// partial specialization keeps the member tuple un-instantiated for
/// them).
struct NoColumns {};

/// Total size of the members a split declares.
template <class State>
[[nodiscard]] consteval std::size_t split_member_bytes() {
  return std::apply(
      [](auto... member) {
        return (std::size_t{0} + ... +
                sizeof(std::declval<const State&>().*member));
      },
      SoaFields<State>::members);
}

/// tuple<vector<field type>...> for the declared members of State.
template <class State, bool kSplit = HasStructSplit<State>>
struct ColumnsOf {
  using type = NoColumns;
};

template <class State>
struct ColumnsOf<State, true> {
  // Without a full-struct array, a member the split leaves out would be
  // dropped on every round trip through the columns.
  static_assert(split_member_bytes<State>() == sizeof(State),
                "SoaFields must name every member of the state");

  static constexpr auto kMembers = SoaFields<State>::members;
  static constexpr std::size_t kFields =
      std::tuple_size_v<std::remove_cvref_t<decltype(kMembers)>>;

  template <std::size_t I>
  using Field = std::remove_cvref_t<decltype(std::declval<const State&>().*
                                             std::get<I>(kMembers))>;

  template <std::size_t... I>
  static auto make(std::index_sequence<I...>)
      -> std::tuple<std::vector<Field<I>>...>;

  using type = decltype(make(std::make_index_sequence<kFields>{}));
};

template <class State>
using Columns = typename ColumnsOf<State>::type;

}  // namespace detail

template <class State>
class ConfigStore;

/// Non-owning, trivially copyable read proxy over one configuration,
/// backed either by a plain std::vector<State> or by a ConfigStore.  This
/// is the type protocols, legitimacy checkers, observers and trace
/// recording consume:
///
///   cfg[v] / cfg.get(v)   whole state of v (one load from a vector; a
///                         column gather from a split store);
///   cfg.field<I>(v)       the I-th declared member of v — a contiguous
///                         column read from a split store, a member load
///                         from a vector;
///   cfg.materialize()     full vector copy (trace snapshots, digests).
///
/// A view over a plain vector (implicit) makes every configuration
/// literal, helper and the reference engine's configuration interoperate;
/// for states without a split the view converts back to the vector, so
/// vector-shaped helpers keep working behind the proxy.
template <class State>
class ConfigView {
  using Columns = detail::Columns<State>;
  static constexpr bool kStructSplit = HasStructSplit<State>;

 public:
  ConfigView() = default;

  /* implicit */ ConfigView(const Config<State>& vec)
      : vec_(&vec), n_(vec.size()) {}

  /* implicit */ ConfigView(const ConfigStore<State>& store)
      : n_(store.n()) {
    if constexpr (kStructSplit) {
      cols_ = &store.backing();
    } else {
      vec_ = &store.backing();
    }
  }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] VertexId n() const { return static_cast<VertexId>(n_); }
  [[nodiscard]] bool empty() const { return n_ == 0; }

  [[nodiscard]] State get(std::size_t i) const {
    assert(i < n_);
    if constexpr (kStructSplit) {
      if (cols_ != nullptr) return gather(i);
    }
    return (*vec_)[i];
  }
  [[nodiscard]] State operator[](std::size_t i) const { return get(i); }

  /// The I-th declared member of vertex i (the whole state for states
  /// without a split).  From a split store this is a contiguous column
  /// read — the access pattern the guard re-tests want.
  template <std::size_t I = 0>
  [[nodiscard]] auto field(std::size_t i) const {
    assert(i < n_);
    if constexpr (kStructSplit) {
      if (cols_ != nullptr) return std::get<I>(*cols_)[i];
      return (*vec_)[i].*std::get<I>(SoaFields<State>::members);
    } else {
      static_assert(I == 0, "state has a single (implicit) field");
      return (*vec_)[i];
    }
  }

  /// Pointer to the contiguous I-th column.  For states without a split
  /// the backing vector *is* the single column, so the pointer is never
  /// null.  A split state viewed through a plain vector (the reference
  /// engine's configuration, helper calls) has no columns: nullptr.  The
  /// engine's store view always has them, so guard kernels
  /// (sim/simd_eval.hpp) may assert non-null.
  template <std::size_t I = 0>
  [[nodiscard]] auto column() const {
    if constexpr (kStructSplit) {
      using Field = typename detail::ColumnsOf<State>::template Field<I>;
      return cols_ != nullptr ? std::get<I>(*cols_).data()
                              : static_cast<const Field*>(nullptr);
    } else {
      static_assert(I == 0, "state has a single (implicit) field");
      return vec_->data();
    }
  }

  /// Full vector copy of the viewed configuration.
  [[nodiscard]] Config<State> materialize() const {
    if (vec_ != nullptr) return *vec_;
    Config<State> out(n_);
    for (std::size_t i = 0; i < n_; ++i) out[i] = get(i);
    return out;
  }

  /// For states without a split the view is always backed by a real
  /// vector, so vector-shaped consumers (legacy predicates, spec helpers)
  /// can keep their signatures and read through the proxy.
  /* implicit */ operator const Config<State>&() const
    requires(!kStructSplit)
  {
    return *vec_;
  }

 private:
  [[nodiscard]] State gather(std::size_t i) const
    requires kStructSplit
  {
    State s{};
    gather_into(s, i, std::make_index_sequence<std::tuple_size_v<Columns>>{});
    return s;
  }

  template <std::size_t... I>
  void gather_into(State& s, std::size_t i, std::index_sequence<I...>) const
    requires kStructSplit
  {
    ((s.*std::get<I>(SoaFields<State>::members) = std::get<I>(*cols_)[i]),
     ...);
  }

  const Config<State>* vec_ = nullptr;  // vector backing
  const Columns* cols_ = nullptr;       // split-store columns
  std::size_t n_ = 0;
};

/// Owning configuration storage for the production engine: member
/// columns for a state that declares a split, one vector otherwise.  The
/// engine holds one ConfigStore for the whole run, mutates it through
/// set() or the dense install below, and hands ConfigView to every
/// consumer.
template <class State>
class ConfigStore {
  using Columns = detail::Columns<State>;
  static constexpr bool kStructSplit = HasStructSplit<State>;
  using Storage = std::conditional_t<kStructSplit, Columns, Config<State>>;

 public:
  /// Whether one full-state vector is the whole representation, so
  /// swap_in() applies.
  static constexpr bool kOneVector = !kStructSplit;

  ConfigStore() = default;

  explicit ConfigStore(Config<State> init) : n_(init.size()) {
    if constexpr (kStructSplit) {
      resize_columns(data_);
      for (std::size_t i = 0; i < n_; ++i) scatter_one(i, init[i]);
    } else {
      data_ = std::move(init);
    }
  }

  [[nodiscard]] VertexId size() const { return static_cast<VertexId>(n_); }
  [[nodiscard]] std::size_t n() const { return n_; }

  [[nodiscard]] ConfigView<State> view() const {
    return ConfigView<State>(*this);
  }

  [[nodiscard]] State get(std::size_t i) const { return view().get(i); }

  /// Installs one state (one write per column under a split).
  void set(std::size_t i, const State& s) {
    if constexpr (kStructSplit) {
      scatter_one(i, s);
    } else {
      data_[i] = s;
    }
  }

  // --- Sharded dense install ----------------------------------------------
  //
  // Composite atomicity over a dense step without a full configuration
  // copy or scattered in-place writes, in three phases whose merge pass
  // fans out over contiguous index ranges: dense_begin() sizes the
  // inactive double buffers (a no-op after the first dense step), each
  // shard calls
  // dense_fill_range() over its own range — segment copies of the gaps
  // plus the pre-computed successor states of the activated vertices
  // inside the range — and dense_commit() swaps the buffers in.  Ranges
  // must partition [0, n); concurrent fill calls on disjoint ranges are
  // data-race-free (disjoint writes into the inactive buffers, reads from
  // the still-live ones).  `staged` is indexed like `activated`
  // (staged[a] is the successor of activated[a]); [a_lo, a_hi) is the
  // activated subrange lying inside [begin, end).  Every other vertex
  // carries its state over, so a range costs end - begin writes per
  // backing array.

  void dense_begin() {
    if constexpr (kStructSplit) {
      resize_columns(next_);
    } else {
      next_.resize(n_);
    }
  }

  void dense_fill_range(const std::vector<VertexId>& activated,
                        const State* staged, std::size_t a_lo,
                        std::size_t a_hi, std::size_t begin,
                        std::size_t end) {
    if constexpr (kStructSplit) {
      fill_columns_range(activated, staged, a_lo, a_hi, begin, end,
                         std::make_index_sequence<std::tuple_size_v<Columns>>{});
    } else {
      segment_merge_range(data_, next_, activated, a_lo, a_hi, begin, end,
                          [&](std::size_t a, std::size_t i) {
                            next_[i] = staged[a];
                          });
    }
  }

  void dense_commit() { data_.swap(next_); }

  /// Installs a complete next configuration by swapping its vector with
  /// the live one (O(1)); `next` receives the previous configuration.
  /// Requires next.size() == n().
  void swap_in(Config<State>& next)
    requires kOneVector
  {
    assert(next.size() == n_);
    data_.swap(next);
  }

  /// Full vector copy-out.
  [[nodiscard]] Config<State> materialize() const {
    return view().materialize();
  }

  /// Moves the configuration out as a plain vector (gathered from the
  /// columns under a split).  Leaves the store empty.
  [[nodiscard]] Config<State> take() {
    Config<State> out;
    if constexpr (kStructSplit) {
      out = materialize();
    } else {
      out = std::move(data_);
    }
    n_ = 0;
    return out;
  }

  /// The live backing: the columns under a split, the vector otherwise
  /// (ConfigView's store constructor reads it).
  [[nodiscard]] const Storage& backing() const { return data_; }

 private:
  void scatter_one(std::size_t i, const State& s)
    requires kStructSplit
  {
    scatter_one_impl(i, s,
                     std::make_index_sequence<std::tuple_size_v<Columns>>{});
  }

  template <std::size_t... I>
  void scatter_one_impl(std::size_t i, const State& s,
                        std::index_sequence<I...>)
    requires kStructSplit
  {
    ((std::get<I>(data_)[i] = s.*std::get<I>(SoaFields<State>::members)),
     ...);
  }

  /// The dense carry-over shared by every backing array, restricted to
  /// the index range [begin, end): copies src into dst in contiguous
  /// segments around the activated indices in [a_lo, a_hi) and lets
  /// `write(a, i)` install the a-th applied value at index i — one
  /// forward pass, end - begin writes, nothing written twice.
  /// `activated` sorted; activated[a_lo..a_hi) must be exactly the
  /// activated vertices inside [begin, end).
  template <class Vec, class Write>
  static void segment_merge_range(const Vec& src, Vec& dst,
                                  const std::vector<VertexId>& activated,
                                  std::size_t a_lo, std::size_t a_hi,
                                  std::size_t begin, std::size_t end,
                                  Write&& write) {
    std::size_t done = begin;
    for (std::size_t a = a_lo; a < a_hi; ++a) {
      const auto i = static_cast<std::size_t>(activated[a]);
      std::copy(src.begin() + static_cast<std::ptrdiff_t>(done),
                src.begin() + static_cast<std::ptrdiff_t>(i),
                dst.begin() + static_cast<std::ptrdiff_t>(done));
      write(a, i);
      done = i + 1;
    }
    std::copy(src.begin() + static_cast<std::ptrdiff_t>(done),
              src.begin() + static_cast<std::ptrdiff_t>(end),
              dst.begin() + static_cast<std::ptrdiff_t>(done));
  }

  /// Ranged dense column refresh for the sharded install path:
  /// segment_merge_range per column, writing each staged state's member.
  template <std::size_t... I>
  void fill_columns_range(const std::vector<VertexId>& activated,
                          const State* staged, std::size_t a_lo,
                          std::size_t a_hi, std::size_t begin,
                          std::size_t end, std::index_sequence<I...>)
    requires kStructSplit
  {
    ((segment_merge_range(std::get<I>(data_), std::get<I>(next_), activated,
                          a_lo, a_hi, begin, end,
                          [&](std::size_t a, std::size_t i) {
                            std::get<I>(next_)[i] =
                                staged[a].*std::get<I>(SoaFields<State>::members);
                          })),
     ...);
  }

  void resize_columns(Columns& cols)
    requires kStructSplit
  {
    std::apply([this](auto&... column) { (column.resize(n_), ...); }, cols);
  }

  std::size_t n_ = 0;
  Storage data_{};  // the live configuration
  Storage next_{};  // dense install double buffer
};

}  // namespace specstab

#endif  // SPECSTAB_SIM_CONFIG_STORE_HPP
