// The one number reader.  Every number the project reads from text goes
// through parse_number(): CLI options, topology and fault specs, daemon
// names, edge lists, JSON tokens, campaign CSV fields and tool flags.
// Standard library only, so the graph layer and the link-free bench
// gate can include it.
#ifndef SPECSTAB_UTIL_PARSE_NUMBER_HPP
#define SPECSTAB_UTIL_PARSE_NUMBER_HPP

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace specstab {

/// Reads all of `text` as one decimal T into `out`.  Returns std::errc{}
/// on success; std::errc::invalid_argument when `text` is not one whole
/// decimal number (empty, a `+`, a `-` on an unsigned T, whitespace,
/// hex, trailing bytes, and for floating T `nan` and `inf`); and
/// std::errc::result_out_of_range when it is one but T cannot hold it.
/// `out` changes only on success.  Callers keep their own range checks
/// and messages.
template <typename T>
[[nodiscard]] std::errc parse_number(std::string_view text, T& out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ptr != end || ec == std::errc::invalid_argument) {
    return std::errc::invalid_argument;
  }
  if (ec != std::errc()) return ec;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::errc::invalid_argument;
  }
  out = value;
  return std::errc();
}

}  // namespace specstab

#endif  // SPECSTAB_UTIL_PARSE_NUMBER_HPP
