#include "dmf/parse.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace dmf {

namespace {

std::invalid_argument rejected(std::string_view what, std::string_view expected,
                               std::string_view text) {
  return std::invalid_argument(std::string(what) + ": expected " +
                               std::string(expected) + ", got '" +
                               std::string(text) + "'");
}

}  // namespace

std::uint64_t detail::readUnsigned(std::string_view text, std::string_view what,
                                   std::uint64_t max) {
  // from_chars for an unsigned type takes digits only: no sign, no space, no
  // prefix. Anything it leaves unread, or a value past 64 bits, is an error.
  std::uint64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || ptr != last || value > max) {
    throw rejected(what, "an integer in 0.." + std::to_string(max), text);
  }
  return value;
}

double readFinite(std::string_view text, std::string_view what) {
  double value = 0.0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || ptr != last || !std::isfinite(value)) {
    throw rejected(what, "a finite number", text);
  }
  return value;
}

std::vector<std::string> splitList(std::string_view text, char sep,
                                   std::string_view what) {
  std::vector<std::string> items;
  if (text.empty()) return items;
  std::size_t pos = 0;
  while (true) {
    const std::size_t end = std::min(text.find(sep, pos), text.size());
    std::string_view item = text.substr(pos, end - pos);
    item.remove_prefix(std::min(item.find_first_not_of(' '), item.size()));
    item.remove_suffix(item.size() - (item.find_last_not_of(' ') + 1));
    if (item.empty()) {
      throw std::invalid_argument(std::string(what) + ": empty item in '" +
                                  std::string(text) + "'");
    }
    items.emplace_back(item);
    if (end == text.size()) return items;
    pos = end + 1;
  }
}

std::pair<std::string, std::string> splitField(std::string_view item) {
  const std::size_t eq = item.find('=');
  if (eq == std::string_view::npos) return {std::string(item), ""};
  return {std::string(item.substr(0, eq)), std::string(item.substr(eq + 1))};
}

}  // namespace dmf
