// Layout-polymorphic configuration storage.
//
// A configuration assigns a state to every vertex.  How those states are
// *stored* is a performance decision, not a semantic one: the engine's
// dirty-set guard re-tests stream the states of whole
// neighborhoods, and for multi-field states an array-of-structs layout
// (one std::vector<State>) drags every cold byte of the struct through
// the cache on each guard read.  ConfigStore<State> makes the layout
// selectable per run:
//
//   - AoS: one contiguous std::vector<State> (the classic layout);
//   - SoA: the *hot* guard fields declared by SoaFields<State> live in
//     separate contiguous column arrays; any cold payload stays in a
//     residual full-struct array.  Single-field (arithmetic) states are
//     their own hot column, so for them the two layouts coincide — the
//     zero-cost fallback.
//
// Consumers never touch the backing vectors.  They read through
// ConfigView<State>, a two-pointer proxy offering get()/operator[]
// (whole-state reads), field<I>() (column reads for hot guard scans) and
// materialize(); engines mutate through ConfigStore::set() and the
// dense_begin()/dense_fill_range()/dense_commit() column-swap path.
// States round-trip bit-identically through every layout, so results
// (digests, delta traces) are byte-identical across layouts — the
// layout-agreement differential suite asserts exactly that.
//
// Declaring a split for a new multi-field state:
//
//   template <>
//   struct SoaFields<MyState> {
//     static constexpr auto members =
//         std::make_tuple(&MyState::hot_a, &MyState::hot_b);
//     static constexpr bool covers_state = false;  // has cold payload
//   };
//
// With covers_state == true the columns are the entire representation;
// otherwise a residual std::vector<MyState> keeps the full struct (so
// whole-state reads stay a single load) and the columns mirror the hot
// members for contiguous guard scans.
#ifndef SPECSTAB_SIM_CONFIG_STORE_HPP
#define SPECSTAB_SIM_CONFIG_STORE_HPP

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/types.hpp"

namespace specstab {

/// Which backing layout a ConfigStore uses.  kAuto resolves per state
/// type: SoA wherever SoaFields<State> declares a split (including the
/// trivial single-column split of arithmetic states), AoS otherwise.
enum class ConfigLayout {
  kAuto,
  kAoS,
  kSoA,
};

/// "auto" | "aos" | "soa".
[[nodiscard]] constexpr std::string_view config_layout_name(
    ConfigLayout layout) {
  switch (layout) {
    case ConfigLayout::kAuto:
      return "auto";
    case ConfigLayout::kAoS:
      return "aos";
    case ConfigLayout::kSoA:
      return "soa";
  }
  return "?";
}

/// Inverse of config_layout_name; throws std::invalid_argument on unknown
/// names.
[[nodiscard]] inline ConfigLayout config_layout_by_name(
    const std::string& name) {
  if (name == "auto") return ConfigLayout::kAuto;
  if (name == "aos") return ConfigLayout::kAoS;
  if (name == "soa") return ConfigLayout::kSoA;
  throw std::invalid_argument("unknown layout '" + name +
                              "' (auto | aos | soa)");
}

/// Trait declaring the SoA field split of a state type.  The primary
/// template declares nothing: such states are stored AoS regardless of
/// the requested layout (requesting SoA falls back — "zero cost" both
/// ways).  Specializations declare a `members` tuple of pointers to the
/// hot guard fields, plus `covers_state` (true when the listed members
/// are the whole struct, so no residual array is needed).
template <class State>
struct SoaFields {};

/// Arithmetic states are a single hot field already: the AoS vector *is*
/// the one SoA column, so both layouts share the same representation and
/// the dense column-swap path applies.
template <class State>
  requires std::is_arithmetic_v<State>
struct SoaFields<State> {
  static constexpr bool scalar_column = true;
};

/// State declares a genuine multi-column split (struct states).
template <class State>
concept HasStructSplit = requires { SoaFields<State>::members; };

/// State participates in SoA at all (struct split or scalar column);
/// kAuto resolves to kSoA exactly for these.
template <class State>
concept HasSoaSplit =
    HasStructSplit<State> || requires { SoaFields<State>::scalar_column; };

namespace detail {

/// tuple<vector<field type>...> for the declared members of State; an
/// empty placeholder for states without a struct split (the partial
/// specialization keeps the member tuple un-instantiated for them).
struct NoColumns {
  friend bool operator==(const NoColumns&, const NoColumns&) = default;
};

template <class State, bool kSplit = HasStructSplit<State>>
struct ColumnsOf {
  using type = NoColumns;
};

template <class State>
struct ColumnsOf<State, true> {
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

/// Whether the declared struct split keeps a residual full-struct array
/// (cold payload present, i.e. covers_state == false).
template <class State>
[[nodiscard]] consteval bool split_has_residual() {
  if constexpr (HasStructSplit<State>) {
    return !SoaFields<State>::covers_state;
  } else {
    return false;
  }
}

}  // namespace detail

template <class State>
class ConfigStore;

/// Non-owning, trivially copyable read proxy over one configuration,
/// independent of its backing layout.  This is the type protocols,
/// legitimacy checkers, observers and trace recording consume:
///
///   cfg[v] / cfg.get(v)   whole state of v (one load when a contiguous
///                         full-struct array backs the view; a column
///                         gather in covers-all struct-SoA);
///   cfg.field<I>(v)       the I-th declared hot member of v — a
///                         contiguous column read under SoA, a member
///                         load under AoS;
///   cfg.materialize()     full AoS copy (trace snapshots, digests).
///
/// A view over a plain std::vector<State> (implicit) makes every
/// existing configuration literal and helper interoperate; for states
/// without a struct split the view converts back to the vector, so
/// vector-shaped helpers keep working behind the proxy.
template <class State>
class ConfigView {
  using Columns = detail::Columns<State>;
  static constexpr bool kStructSplit = HasStructSplit<State>;

 public:
  ConfigView() = default;

  /* implicit */ ConfigView(const Config<State>& aos)
      : vec_(&aos), n_(aos.size()) {}

  /* implicit */ ConfigView(const ConfigStore<State>& store)
      : vec_(store.backing_vector()),
        cols_(store.backing_columns()),
        n_(static_cast<std::size_t>(store.size())) {}

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] VertexId n() const { return static_cast<VertexId>(n_); }
  [[nodiscard]] bool empty() const { return n_ == 0; }

  [[nodiscard]] State get(std::size_t i) const {
    assert(i < n_);
    if constexpr (kStructSplit) {
      if (vec_ == nullptr) return gather(i);
    }
    return (*vec_)[i];
  }
  [[nodiscard]] State operator[](std::size_t i) const { return get(i); }

  /// The I-th declared hot member of vertex i (the whole state for
  /// scalar-column states).  Under SoA this is a contiguous column read —
  /// the access pattern the dirty-set guard re-tests want.
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

  /// Pointer to the contiguous I-th hot column when the backing layout
  /// keeps one (struct-SoA), nullptr otherwise.  Guard kernels
  /// (sim/simd_eval.hpp) take this fast path and fall back to per-element
  /// field<I>() reads under AoS; for states without a struct split the
  /// backing vector *is* the single column, so the pointer is never null.
  template <std::size_t I = 0>
  [[nodiscard]] auto column() const {
    if constexpr (kStructSplit) {
      using Field = std::remove_cvref_t<decltype(std::declval<const State&>().*
                                                 std::get<I>(
                                                     SoaFields<State>::members))>;
      return cols_ != nullptr ? std::get<I>(*cols_).data()
                              : static_cast<const Field*>(nullptr);
    } else {
      static_assert(I == 0, "state has a single (implicit) field");
      return vec_->data();
    }
  }

  /// Full AoS copy of the viewed configuration.
  [[nodiscard]] Config<State> materialize() const {
    if (vec_ != nullptr) return *vec_;
    Config<State> out(n_);
    for (std::size_t i = 0; i < n_; ++i) out[i] = get(i);
    return out;
  }

  /// For states without a struct split the view is always backed by a
  /// real vector, so vector-shaped consumers (legacy predicates, spec
  /// helpers) can keep their signatures and read through the proxy.
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

  const Config<State>* vec_ = nullptr;  // AoS data / residual full structs
  const Columns* cols_ = nullptr;       // hot columns (struct-SoA only)
  std::size_t n_ = 0;
};

/// Owning configuration storage with a per-instance layout.  Engines hold
/// one ConfigStore for the whole run, mutate it through set() or the
/// dense install below, and hand ConfigView to every consumer.
template <class State>
class ConfigStore {
  using Columns = detail::Columns<State>;
  static constexpr bool kStructSplit = HasStructSplit<State>;
  static constexpr bool kResidual = detail::split_has_residual<State>();

 public:
  ConfigStore() = default;

  explicit ConfigStore(Config<State> init,
                       ConfigLayout layout = ConfigLayout::kAuto) {
    reset(std::move(init), layout);
  }

  /// Resolves kAuto (and requests the state type cannot honor) to the
  /// layout actually used: SoA wherever a split is declared, AoS
  /// otherwise.
  [[nodiscard]] static constexpr ConfigLayout resolve(ConfigLayout requested) {
    if constexpr (HasSoaSplit<State>) {
      return requested == ConfigLayout::kAoS ? ConfigLayout::kAoS
                                             : ConfigLayout::kSoA;
    } else {
      return ConfigLayout::kAoS;
    }
  }

  /// (Re)installs a configuration under the given layout.
  void reset(Config<State> init, ConfigLayout layout = ConfigLayout::kAuto) {
    layout_ = resolve(layout);
    n_ = init.size();
    if constexpr (kStructSplit) {
      if (layout_ == ConfigLayout::kSoA) {
        scatter_all(init);
        if constexpr (kResidual) {
          data_ = std::move(init);
        } else {
          data_.clear();
        }
        return;
      }
      clear_columns();
    }
    data_ = std::move(init);
  }

  [[nodiscard]] ConfigLayout layout() const { return layout_; }
  [[nodiscard]] VertexId size() const { return static_cast<VertexId>(n_); }
  [[nodiscard]] std::size_t n() const { return n_; }

  [[nodiscard]] ConfigView<State> view() const {
    return ConfigView<State>(*this);
  }

  [[nodiscard]] State get(std::size_t i) const { return view().get(i); }

  /// Installs one state, keeping every backing array consistent (columns
  /// and, when present, the residual struct array).
  void set(std::size_t i, const State& s) {
    if constexpr (kStructSplit) {
      if (layout_ == ConfigLayout::kSoA) {
        scatter_one(cols_, i, s);
        if constexpr (kResidual) data_[i] = s;
        return;
      }
    }
    data_[i] = s;
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
      if (layout_ == ConfigLayout::kSoA) {
        resize_columns(next_cols_);
        if constexpr (kResidual) next_data_.resize(n_);
        return;
      }
    }
    next_data_.resize(n_);
  }

  void dense_fill_range(const std::vector<VertexId>& activated,
                        const State* staged, std::size_t a_lo,
                        std::size_t a_hi, std::size_t begin,
                        std::size_t end) {
    if constexpr (kStructSplit) {
      if (layout_ == ConfigLayout::kSoA) {
        fill_columns_range(activated, staged, a_lo, a_hi, begin, end,
                           std::make_index_sequence<std::tuple_size_v<Columns>>{});
        if constexpr (kResidual) {
          segment_merge_range(data_, next_data_, activated, a_lo, a_hi, begin,
                              end, [&](std::size_t a, std::size_t i) {
                                next_data_[i] = staged[a];
                              });
        }
        return;
      }
    }
    segment_merge_range(data_, next_data_, activated, a_lo, a_hi, begin, end,
                        [&](std::size_t a, std::size_t i) {
                          next_data_[i] = staged[a];
                        });
  }

  void dense_commit() {
    if constexpr (kStructSplit) {
      if (layout_ == ConfigLayout::kSoA) {
        std::swap(cols_, next_cols_);
        if constexpr (kResidual) data_.swap(next_data_);
        return;
      }
    }
    data_.swap(next_data_);
  }

  /// Whether one full-state vector is the whole representation (AoS, or
  /// a state without a struct split), so swap_in() applies.
  [[nodiscard]] bool holds_one_vector() const {
    return backing_columns() == nullptr;
  }

  /// Installs a complete next configuration by swapping its vector with
  /// the live one (O(1)); `next` receives the previous configuration.
  /// Requires holds_one_vector() and next.size() == n().
  void swap_in(Config<State>& next) {
    assert(holds_one_vector() && next.size() == n_);
    data_.swap(next);
  }

  /// Full AoS copy-out.
  [[nodiscard]] Config<State> materialize() const {
    return view().materialize();
  }

  /// Moves the configuration out as a plain vector (materializes from
  /// columns when no full-struct array is kept).  Leaves the store empty.
  [[nodiscard]] Config<State> take() {
    Config<State> out;
    if constexpr (kStructSplit && !kResidual) {
      if (layout_ == ConfigLayout::kSoA) {
        out = materialize();
        n_ = 0;
        return out;
      }
    }
    out = std::move(data_);
    n_ = 0;
    return out;
  }

  // --- ConfigView backing access (see its store constructor) ---

  /// The contiguous full-struct array, or nullptr when the layout keeps
  /// columns only.
  [[nodiscard]] const Config<State>* backing_vector() const {
    if constexpr (kStructSplit) {
      if (layout_ == ConfigLayout::kSoA && !kResidual) return nullptr;
    }
    return &data_;
  }

  /// The hot-field columns, or nullptr outside struct-SoA mode.
  [[nodiscard]] const Columns* backing_columns() const {
    if constexpr (kStructSplit) {
      if (layout_ == ConfigLayout::kSoA) return &cols_;
    }
    return nullptr;
  }

 private:
  void scatter_all(const Config<State>& init)
    requires kStructSplit
  {
    resize_columns(cols_);
    for (std::size_t i = 0; i < n_; ++i) scatter_one(cols_, i, init[i]);
  }

  void scatter_one(Columns& cols, std::size_t i, const State& s)
    requires kStructSplit
  {
    scatter_one_impl(cols, i, s,
                     std::make_index_sequence<std::tuple_size_v<Columns>>{});
  }

  template <std::size_t... I>
  void scatter_one_impl(Columns& cols, std::size_t i, const State& s,
                        std::index_sequence<I...>)
    requires kStructSplit
  {
    ((std::get<I>(cols)[i] = s.*std::get<I>(SoaFields<State>::members)), ...);
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
    ((segment_merge_range(std::get<I>(cols_), std::get<I>(next_cols_),
                          activated, a_lo, a_hi, begin, end,
                          [&](std::size_t a, std::size_t i) {
                            std::get<I>(next_cols_)[i] =
                                staged[a].*std::get<I>(SoaFields<State>::members);
                          })),
     ...);
  }

  void resize_columns(Columns& cols)
    requires kStructSplit
  {
    std::apply([this](auto&... column) { (column.resize(n_), ...); }, cols);
  }

  void clear_columns()
    requires kStructSplit
  {
    std::apply([](auto&... column) { (column.clear(), ...); }, cols_);
  }

  ConfigLayout layout_ = ConfigLayout::kAoS;
  std::size_t n_ = 0;
  Config<State> data_;       // AoS data, or the SoA residual struct array
  Columns cols_{};           // SoA hot-field columns (struct splits only)
  Config<State> next_data_;  // dense install double buffers
  Columns next_cols_{};
};

}  // namespace specstab

#endif  // SPECSTAB_SIM_CONFIG_STORE_HPP
