// Strict whole-string numeric parsing.
//
// One shared implementation for every place that turns untrusted text into a
// number (CLI options, example arguments): the entire input must parse, the
// value must fit the destination type, and floating-point results must be
// finite.  Callers decide how to report failure.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <type_traits>

namespace vodcache::util {

// Parses all of `text` as a T.  Returns nullopt on empty input, trailing
// garbage, overflow (from_chars reports result_out_of_range), or — for
// floating point — NaN/infinity.
template <typename T>
[[nodiscard]] std::optional<T> parse_strict(std::string_view text) {
  T value{};
  const auto* first = text.data();
  const auto* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

}  // namespace vodcache::util
