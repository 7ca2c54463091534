// Table test of the one number reader (util/parse_number.hpp): every
// token is either a whole decimal number of the requested type, a
// malformed token or an out-of-range one.
#include "util/parse_number.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string_view>
#include <system_error>

namespace specstab {
namespace {

constexpr std::errc kOk{};
constexpr std::errc kBad = std::errc::invalid_argument;
constexpr std::errc kRange = std::errc::result_out_of_range;

template <typename T>
struct Case {
  std::string_view text;
  std::errc ec;
  T value;  ///< expected on kOk
};

template <typename T>
void check(const Case<T>& c) {
  constexpr T kUntouched = T{99};
  T value = kUntouched;
  EXPECT_EQ(parse_number(c.text, value), c.ec) << "'" << c.text << "'";
  // A failed parse leaves the output alone.
  EXPECT_EQ(value, c.ec == kOk ? c.value : kUntouched) << "'" << c.text << "'";
}

TEST(ParseNumberTest, WholeDecimalTokensOfTheRequestedType) {
  constexpr auto kI32Max = std::numeric_limits<std::int32_t>::max();
  constexpr auto kI64Min = std::numeric_limits<std::int64_t>::min();
  constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();
  // Spellings every integer type refuses.
  for (const std::string_view text :
       {"", "-", "+5", " 5", "5 ", "0x10", "1e3", "5.0", "12x"}) {
    check(Case<std::int32_t>{text, kBad, 0});
    check(Case<std::int64_t>{text, kBad, 0});
    check(Case<std::uint64_t>{text, kBad, 0});
  }
  for (const auto& c : {Case<std::int32_t>{"0", kOk, 0},
                        {"-0", kOk, 0},
                        {"007", kOk, 7},
                        {"-8", kOk, -8},
                        {"2147483647", kOk, kI32Max},
                        {"2147483648", kRange, 0},
                        {"-2147483649", kRange, 0},
                        {"4294967304", kRange, 0}}) {
    check(c);
  }
  for (const auto& c :
       {Case<std::int64_t>{"-9223372036854775808", kOk, kI64Min},
        {"9223372036854775808", kRange, 0},
        {"18446744073709551616", kRange, 0}}) {
    check(c);
  }
  for (const auto& c :
       {Case<std::uint64_t>{"18446744073709551615", kOk, kU64Max},
        {"18446744073709551616", kRange, 0},
        {"-1", kBad, 0},  // no sign on an unsigned type: -1 never wraps
        {"-0", kBad, 0}}) {
    check(c);
  }
  for (const auto& c : {Case<double>{"0.25", kOk, 0.25},
                        {"-0", kOk, -0.0},
                        {".5", kOk, 0.5},
                        {"1e3", kOk, 1000.0},
                        {"6e-17", kOk, 6e-17},
                        {"18446744073709551616", kOk, 0x1p64},
                        {"nan", kBad, 0},  // finite values only
                        {"inf", kBad, 0},
                        {"-inf", kBad, 0},
                        {"+0.5", kBad, 0},
                        {" 0.5", kBad, 0},
                        {"0x.8", kBad, 0},
                        {"1e999", kRange, 0}}) {
    check(c);
  }
}

}  // namespace
}  // namespace specstab
