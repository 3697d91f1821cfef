// Strict positional-argument parsing shared by the example programs.
//
// Examples are the first thing a new user runs; a typo'd argument must print
// a usage line and exit(2), not trip a library precondition and abort.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "scenario/config_keys.hpp"
#include "util/parse.hpp"
#include "util/units.hpp"

namespace vodcache::examples {

[[noreturn]] inline void usage_error(std::string_view program,
                                     std::string_view usage,
                                     std::string_view detail) {
  std::cerr << program << ": " << detail << "\nusage: " << program << ' '
            << usage << '\n';
  std::exit(2);
}

// Parses argv[index] as a positive integer in [1, max_value], or returns
// `fallback` when the argument is absent.  Rejects trailing garbage ("10x"),
// overflow, non-numbers, and out-of-range values.  The bound matters:
// e.g. a gigabyte count above ~1e9 would overflow the int64 bit count in
// DataSize::gigabytes and abort on a library precondition.
inline int positive_int_arg(int argc, char** argv, int index, int fallback,
                            std::string_view name, std::string_view usage,
                            int max_value = 1'000'000'000) {
  if (index >= argc) return fallback;
  const std::string_view text = argv[index];
  const auto value = util::parse_strict<int>(text);
  if (!value || *value <= 0 || *value > max_value) {
    usage_error(argv[0], usage,
                std::string(name) + " must be an integer in [1, " +
                    std::to_string(max_value) + "], got '" + std::string(text) +
                    "'");
  }
  return *value;
}

// Parses argv[index] as a strictly positive finite double, or returns
// `fallback` when the argument is absent.
inline double positive_double_arg(int argc, char** argv, int index,
                                  double fallback, std::string_view name,
                                  std::string_view usage) {
  if (index >= argc) return fallback;
  const std::string_view text = argv[index];
  const auto value = util::parse_strict<double>(text);
  if (!value || *value <= 0.0) {
    usage_error(argv[0], usage,
                std::string(name) + " must be a positive number, got '" +
                    std::string(text) + "'");
  }
  return *value;
}

// Each option can be individually in range while their product still
// overflows the int64 bit count of the total neighborhood cache; the
// config-key table's cross-field check rejects that combination.
inline void require_capacity_fits(char** argv, std::string_view usage,
                                  int per_peer_gb, int neighborhood_size) {
  scenario::RunConfig config;
  config.system.per_peer_storage = DataSize::gigabytes(per_peer_gb);
  config.system.neighborhood_size =
      static_cast<std::uint32_t>(neighborhood_size);
  try {
    scenario::check_config(config);
  } catch (const scenario::ConfigError& error) {
    usage_error(argv[0], usage, error.what());
  }
}

}  // namespace vodcache::examples
