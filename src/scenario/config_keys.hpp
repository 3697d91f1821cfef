// The config-key table: every knob the CLI flags and scenario files set,
// one row each, and the CLI front end that dispatches through it.
//
// A row holds both spellings of a key (the CLI flag and the scenario
// `[section] key`, either optional), its value kind and bounds, the
// one-line help text, and the setter that writes the parsed value straight
// into the RunConfig.  The scenario-file parser (scenario.hpp) and
// parse_cli() both apply keys through the table, and `vodcache --help`
// and `--list-scenarios` are generated from it, so a knob's spelling,
// bounds and meaning cannot drift between surfaces (round-tripped in
// tests/config_keys_test.cpp).  Rules no single row can enforce live in
// check_config(), which both front ends run once every key is applied.
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "hfc/topology.hpp"
#include "scenario/scenario.hpp"

namespace vodcache::scenario {

// A named configuration error — a malformed or out-of-range value, an
// unknown key, or a failed cross-field rule.  Untrusted input, not a
// programming error: the CLI reports it as a usage error (exit 2).
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class ValueKind {
  Int,   // int64 within the row's bounds
  Real,  // finite double within the row's bounds
  Seed,  // any uint64
  Flag,  // CLI: bare flag (sets 1); scenario file: 0 or 1
  Name,  // one of the row's registry names
  Text,  // free text (scenario summary)
};

// Inclusive [lo, hi], or (lo, hi] when `lo_open`.  Integer bounds are all
// below 2^53, so the doubles hold them exactly.
struct Bounds {
  double lo = 0.0;
  double hi = 0.0;
  bool lo_open = false;
};

// A parsed value; the member the row's kind names is set.
struct Value {
  std::int64_t integer = 0;  // Int, Flag
  double real = 0.0;         // Real
  std::uint64_t seed = 0;    // Seed
  std::string_view text;     // Name, Text
};

struct ConfigKey {
  const char* cli;      // "--days"; nullptr: scenario files only
  const char* section;  // "workload"; nullptr: CLI only
  const char* key;      // scenario spelling; nullptr with `section`
  ValueKind kind;
  Bounds bounds;
  const char* help;
  void (*set)(RunConfig&, const Value&);
  // Name rows: the accepted names, "a|b|c" (a PolicyRegistry listing).
  std::string (*names)() = nullptr;
};

[[nodiscard]] std::span<const ConfigKey> config_keys();
[[nodiscard]] const ConfigKey* find_cli_key(std::string_view flag);
[[nodiscard]] const ConfigKey* find_scenario_key(std::string_view section,
                                                 std::string_view key);

// Parses `text` for `row` and applies it to `config`; throws a ConfigError
// naming `spelling` when the value is malformed or out of bounds.
void apply_key(const ConfigKey& row, std::string_view spelling,
               std::string_view text, RunConfig& config);

// The hub tier the [tiers] keys and --hub-* flags configure, created on
// first use; later settings overwrite it key by key.
hfc::TierLevelSpec& hub(core::SystemConfig& system);

// Cross-field rules: the scenario adaptors fit the workload, per-peer
// storage x neighborhood and hub capacity x fan-in fit the byte range, a
// hub outage has both keys and starts inside the horizon, and policy
// switching has a cached set to hand over.  Throws a ConfigError naming
// the keys involved.
void check_config(const RunConfig& config);

// users x --scale-pop and programs x --scale-cat must fit the 32-bit id
// spaces of the scaled workload.
void check_id_space(std::uint64_t users, std::uint64_t programs,
                    const RunConfig& config);

// One section of the scenario file format: its header spelling, a
// one-line summary, and what its mere presence does (enable an adaptor,
// create the hub), if anything.
struct SectionEntry {
  const char* key;
  const char* summary;
  void (*enter)(RunConfig&) = nullptr;
};

[[nodiscard]] std::span<const SectionEntry> section_registry();
[[nodiscard]] const SectionEntry* find_section(std::string_view key);
// "scenario|workload|..." — for error messages.
[[nodiscard]] std::string section_keys();
// "title_rank, start_hour, ..." — the keys the table gives `section`.
[[nodiscard]] std::string section_key_list(std::string_view section);

// `vodcache` options.  Besides the config flags, the CLI knows only the
// command word and the options that are not config keys (--trace,
// --scenario, --fail, --json, the listings and --help).  Options apply in
// order: a --scenario file overrides the flags before it and later flags
// override the file.
struct CliOptions {
  // run | gen | demand, or the listing to print: --help, -h,
  // --list-strategies, --list-scenarios, --list-tiers.
  std::string command;
  RunConfig config;
  bool has_scenario = false;
  std::string trace_path;
  std::string output_path;  // gen: trace CSV destination
  std::string json_path;    // run: "-" = stdout
  bool emit_json = false;
};

// Parses argv[1..]; throws ConfigError on any bad input.
[[nodiscard]] CliOptions parse_cli(const std::vector<std::string>& args);

// The `vodcache --help` text, generated from the table.
[[nodiscard]] std::string cli_usage();

}  // namespace vodcache::scenario
