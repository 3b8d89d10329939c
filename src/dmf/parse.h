// Checked readers for the numbers and lists that arrive as text: CLI option
// values, the fleet and fault spec strings, and fuzz replay seeds.
//
// Each reader takes a `what` label (an option or field name) and throws
// std::invalid_argument starting with it when the text is rejected, so every
// caller maps a bad value to the same usage error (exit 1). Nothing is
// accepted by prefix: "5abc" is not 5, and an integer that does not fit the
// destination type is an error, never a wrapped value.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace dmf {

namespace detail {
/// `text` as a decimal integer in [0, max]; throws naming `what` otherwise.
[[nodiscard]] std::uint64_t readUnsigned(std::string_view text,
                                         std::string_view what,
                                         std::uint64_t max);
}  // namespace detail

/// A decimal integer that fits T. Digits only, over the whole string: no
/// sign, space, base prefix or exponent.
template <typename T>
[[nodiscard]] T readUnsigned(std::string_view text, std::string_view what) {
  static_assert(std::is_unsigned_v<T> && sizeof(T) <= sizeof(std::uint64_t));
  return static_cast<T>(
      detail::readUnsigned(text, what, std::numeric_limits<T>::max()));
}

/// An already-parsed integer (e.g. a JSON number) narrowed to T, with the
/// same range check and message as readUnsigned.
template <typename T>
[[nodiscard]] T narrowUnsigned(std::uint64_t value, std::string_view what) {
  return readUnsigned<T>(std::to_string(value), what);
}

/// A finite decimal number over the whole string. NaN, infinities and
/// values that overflow a double are rejected.
[[nodiscard]] double readFinite(std::string_view text, std::string_view what);

/// Splits `text` on `sep`, trimming spaces around each item. "" is the empty
/// list; any other empty item (as in "1,,2", "a;" or " ") is an error naming
/// `what`.
[[nodiscard]] std::vector<std::string> splitList(std::string_view text,
                                                 char sep,
                                                 std::string_view what);

/// Splits "key=value" at its first '='. An item without one is a bare flag:
/// (item, "").
[[nodiscard]] std::pair<std::string, std::string> splitField(
    std::string_view item);

}  // namespace dmf
