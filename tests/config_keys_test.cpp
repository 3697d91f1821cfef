// The config-key table behind both front ends: every row round-trips
// through the CLI and the scenario parser to the same config, the
// cross-field checks give named errors on both surfaces, and a seeded
// grammar fuzzer drives keys, values at/inside/past their bounds and
// malformed text through both parsers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/segment_store.hpp"
#include "core/config.hpp"
#include "scenario/config_keys.hpp"
#include "util/rng.hpp"

namespace vodcache::scenario {
namespace {

using Args = std::vector<std::string>;

RunConfig parse_text(const std::string& text, RunConfig base = {}) {
  std::istringstream in(text);
  return parse_scenario(in, "inline", std::move(base));
}

// EXPECT that `parse` throws a ConfigError mentioning every fragment.
void expect_config_error(const std::function<void()>& parse,
                         const std::vector<std::string>& fragments) {
  try {
    parse();
    ADD_FAILURE() << "expected a ConfigError";
  } catch (const ConfigError& error) {
    const std::string what = error.what();
    for (const auto& fragment : fragments) {
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "message '" << what << "' lacks '" << fragment << "'";
    }
  }
}

std::string write_file(const std::string& name, const std::string& text) {
  const auto path = ::testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

std::string format(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::vector<std::string> split_names(const ConfigKey& row) {
  std::vector<std::string> names;
  std::stringstream in(row.names());
  for (std::string name; std::getline(in, name, '|');) names.push_back(name);
  return names;
}

std::string describe(const ConfigKey& row) {
  return row.cli != nullptr ? row.cli
                            : std::string(row.section) + "." + row.key;
}

// In-bounds values for a row: both bounds and one point inside.
std::vector<std::string> legal_values(const ConfigKey& row) {
  const auto [lo, hi, lo_open] = row.bounds;
  switch (row.kind) {
    case ValueKind::Int: {
      const auto a = static_cast<std::int64_t>(lo);
      const auto b = static_cast<std::int64_t>(hi);
      return {std::to_string(a), std::to_string(b),
              std::to_string(a + (b - a) / 3)};
    }
    case ValueKind::Real:
      return {format(lo_open ? hi / 4 : lo), format(hi),
              format(lo + (hi - lo) / 3)};
    case ValueKind::Seed:
      return {"0", "18446744073709551615", "42"};
    case ValueKind::Flag:
      return {"1"};
    case ValueKind::Name:
      return split_names(row);
    case ValueKind::Text:
      return {"some words"};
  }
  return {};
}

TEST(ConfigKeyTable, SpellingsAreUniqueAndDocumented) {
  std::set<std::string> cli, scenario;
  for (const auto& row : config_keys()) {
    EXPECT_TRUE(row.cli != nullptr || row.section != nullptr);
    EXPECT_EQ(row.section == nullptr, row.key == nullptr) << describe(row);
    EXPECT_NE(std::strlen(row.help), 0u) << describe(row);
    EXPECT_EQ(row.kind == ValueKind::Name, row.names != nullptr)
        << describe(row);
    if (row.cli != nullptr) {
      EXPECT_TRUE(cli.insert(row.cli).second) << row.cli;
      EXPECT_EQ(find_cli_key(row.cli), &row);
    }
    if (row.section != nullptr) {
      EXPECT_NE(find_section(row.section), nullptr) << describe(row);
      EXPECT_TRUE(
          scenario.insert(std::string(row.section) + "." + row.key).second);
      EXPECT_EQ(find_scenario_key(row.section, row.key), &row);
    }
  }
  EXPECT_EQ(find_cli_key("--no-such-flag"), nullptr);
  EXPECT_EQ(find_scenario_key("tiers", "hub_size"), nullptr);
}

TEST(ConfigKeyTable, HelpListsEveryCliFlagAndItsScenarioSpelling) {
  const auto help = cli_usage();
  for (const auto& row : config_keys()) {
    if (row.cli == nullptr) continue;
    EXPECT_NE(help.find(std::string("  ") + row.cli + " "), std::string::npos)
        << row.cli;
    if (row.section != nullptr) {
      EXPECT_NE(help.find(std::string("[") + row.section + "] " + row.key),
                std::string::npos)
          << row.cli;
    }
  }
  for (const char* other : {"--trace", "--scenario", "--fail", "--json",
                            "--list-scenarios", "--help"}) {
    EXPECT_NE(help.find(other), std::string::npos) << other;
  }
}

// The accepted surface and its defaults: the paper's SystemConfig and the
// CLI's 21-day workload.
TEST(CliParser, DefaultsAreThePapersSystemOverTwentyOneDays) {
  const auto options = parse_cli({"run"});
  trace::GeneratorConfig workload;
  workload.days = 21;
  EXPECT_EQ(options.config.scenario.workload, workload);
  EXPECT_TRUE(options.config.system == core::SystemConfig{});
  EXPECT_EQ(options.config.scale_pop, 1u);
  EXPECT_FALSE(options.config.materialize);
}

// Every row with both spellings, at both bounds and inside them, through
// both front ends: the same GeneratorConfig and SystemConfig, or a named
// error from both.  [tiers] creates the hub by its presence alone, which
// no CLI flag spells; the section's own hook is applied to the CLI side.
TEST(ConfigKeyTable, EveryRowRoundTripsThroughBothFrontEnds) {
  const auto defaults = parse_cli({"run"}).config;
  for (const auto& row : config_keys()) {
    if (row.cli == nullptr || row.section == nullptr) continue;
    bool changed_something = false;
    for (const auto& value : legal_values(row)) {
      SCOPED_TRACE(describe(row) + " = " + value);
      Args args = {"run", row.cli};
      if (row.kind != ValueKind::Flag) args.push_back(value);
      const std::string text = std::string("[") + row.section + "]\n" +
                               row.key + " = " + value + "\n";
      std::optional<RunConfig> cli, file;
      std::string cli_error, file_error;
      try {
        cli = parse_cli(args).config;
      } catch (const ConfigError& error) {
        cli_error = error.what();
      }
      try {
        file = parse_text(text, defaults);
      } catch (const ConfigError& error) {
        file_error = error.what();
      }
      ASSERT_EQ(cli.has_value(), file.has_value())
          << "cli: '" << cli_error << "' file: '" << file_error << "'";
      if (!cli) continue;
      if (auto enter = find_section(row.section)->enter) enter(*cli);
      EXPECT_EQ(cli->scenario.workload, file->scenario.workload);
      EXPECT_TRUE(cli->system == file->system);
      changed_something |= !(file->system == defaults.system &&
                             file->scenario.workload ==
                                 defaults.scenario.workload);
    }
    EXPECT_TRUE(changed_something) << describe(row) << " set nothing";
  }
}

TEST(ConfigKeyTable, SeedsTakeTheFullUint64RangeOnBothSurfaces) {
  const auto cli = parse_cli({"run", "--seed", "18446744073709551615"});
  EXPECT_EQ(cli.config.scenario.workload.seed,
            std::numeric_limits<std::uint64_t>::max());
  const auto file = parse_text("[workload]\nseed = 18446744073709551615\n");
  EXPECT_EQ(file.scenario.workload.seed,
            std::numeric_limits<std::uint64_t>::max());
  expect_config_error([] { (void)parse_cli({"run", "--seed", "-1"}); },
                      {"malformed value", "--seed"});
  expect_config_error(
      [] { (void)parse_cli({"run", "--seed", "18446744073709551616"}); },
      {"malformed value", "--seed"});
}

TEST(CrossFieldChecks, PolicySwitchWithoutACacheIsANamedErrorOnBothSurfaces) {
  expect_config_error(
      [] {
        (void)parse_cli({"run", "--days", "1", "--users", "200",
                         "--neighborhood", "100", "--strategy", "none",
                         "--policy-switch"});
      },
      {"policy_switch", "--strategy none"});

  RunConfig no_cache;
  no_cache.system.strategy.kind = core::StrategyKind::None;
  expect_config_error(
      [&] { (void)parse_text("[system]\npolicy_switch = 1\n", no_cache); },
      {"line 2", "policy_switch", "--strategy none"});

  // The same file through the CLI, with --strategy none before or after.
  const auto path = write_file("switch.scn", "[system]\npolicy_switch = 1\n");
  expect_config_error(
      [&] {
        (void)parse_cli({"run", "--strategy", "none", "--scenario", path});
      },
      {"policy_switch"});
  expect_config_error(
      [&] {
        (void)parse_cli({"run", "--scenario", path, "--strategy", "none"});
      },
      {"policy_switch"});
  EXPECT_TRUE(
      parse_cli({"run", "--scenario", path}).config.system.policy_switch);
}

// The GlobalLFU board needs a nonempty window; LFU alone at history 0 is
// pure LRU (figure 11's leftmost point) and stays legal.
TEST(CrossFieldChecks, ZeroHistoryWithAGlobalBoardIsANamedError) {
  for (const char* mode : {"--shadow-matrix", "--policy-switch"}) {
    expect_config_error(
        [&] { (void)parse_cli({"run", "--history-hours", "0", mode}); },
        {"--history-hours", "--strategy global", "--shadow-matrix",
         "--policy-switch"});
  }
  expect_config_error(
      [] {
        (void)parse_cli(
            {"run", "--strategy", "global", "--history-hours", "0"});
      },
      {"--history-hours"});

  RunConfig zero_history;
  zero_history.system.strategy.lfu_history = sim::SimTime{};
  expect_config_error(
      [&] { (void)parse_text("[system]\npolicy_switch = 1\n", zero_history); },
      {"line 2", "--history-hours"});

  const auto lru_point =
      parse_cli({"run", "--strategy", "lfu", "--history-hours", "0"}).config;
  EXPECT_EQ(lru_point.system.strategy.lfu_history, sim::SimTime{});
  lru_point.system.validate();
}

TEST(CrossFieldChecks, OverflowGuardsAreNamedOnBothSurfaces) {
  expect_config_error(
      [] {
        (void)parse_cli({"run", "--per-peer-gb", "1000000000",
                         "--neighborhood", "1000"});
      },
      {"per_peer_gb x neighborhood"});
  expect_config_error(
      [] { (void)parse_text("[system]\nper_peer_gb = 1000000000\n"); },
      {"line 2", "per_peer_gb x neighborhood"});
  expect_config_error(
      [] {
        (void)parse_cli({"run", "--hub-capacity-gb", "1000000000",
                         "--hub-fan-in", "4000000000"});
      },
      {"hub_capacity_gb x hub_fan_in"});
}

// A neighborhood is one SegmentStore, which holds at most
// cache::kMaxPeers peers: one more is a named error on both surfaces, not
// an abort when the store is built.
TEST(ConfigKeyTable, NeighborhoodIsBoundedByTheStoresPeerLimit) {
  EXPECT_EQ(cache::kMaxPeers, 16'777'215u);
  EXPECT_EQ(parse_cli({"run", "--neighborhood", "16777215"})
                .config.system.neighborhood_size,
            16'777'215u);
  EXPECT_EQ(parse_text("[system]\nneighborhood = 16777215\n")
                .system.neighborhood_size,
            16'777'215u);
  expect_config_error(
      [] { (void)parse_cli({"run", "--neighborhood", "16777216"}); },
      {"'--neighborhood' must be in [1, 16777215]"});
  expect_config_error(
      [] { (void)parse_text("[system]\nneighborhood = 16777216\n"); },
      {"line 2", "[1, 16777215]"});
}

// --hub-* flags and a [tiers] section configure one hub, later settings
// winning key by key — never a second hub level.
TEST(HubTier, CliFlagsAndTiersSectionShareOneHub) {
  const auto path = write_file(
      "hub.scn", "[tiers]\nhub_fan_in = 4\nhub_capacity_gb = 100\n");
  const auto before =
      parse_cli({"run", "--hub-capacity-gb", "5", "--hub-cost-per-gb", "0.5",
                 "--scenario", path})
          .config.system;
  ASSERT_EQ(before.tiers.size(), 1u);
  EXPECT_EQ(before.tiers[0].fan_in, 4u);
  EXPECT_EQ(before.tiers[0].capacity, DataSize::gigabytes(100));  // file wins
  EXPECT_DOUBLE_EQ(before.tiers[0].cost_per_gb, 0.5);  // the file kept it

  const auto after =
      parse_cli({"run", "--scenario", path, "--hub-capacity-gb", "5"})
          .config.system;
  ASSERT_EQ(after.tiers.size(), 1u);
  EXPECT_EQ(after.tiers[0].fan_in, 4u);
  EXPECT_EQ(after.tiers[0].capacity, DataSize::gigabytes(5));  // flag wins
}

TEST(CliParser, NonKeyOptionsAndUsageErrors) {
  const auto options = parse_cli({"gen", "--days", "2", "out.csv", "--fail",
                                  "10", "0.5", "--json"});
  EXPECT_EQ(options.output_path, "out.csv");
  ASSERT_EQ(options.config.system.peer_failures.size(), 1u);
  EXPECT_EQ(options.config.system.peer_failures[0].time,
            sim::SimTime::hours(10));
  EXPECT_EQ(options.json_path, "-");
  EXPECT_EQ(parse_cli({"run", "--json", "r.json"}).json_path, "r.json");
  EXPECT_EQ(parse_cli({"--help"}).command, "--help");
  EXPECT_EQ(parse_cli({"run", "--list-tiers"}).command, "--list-tiers");

  expect_config_error([] { (void)parse_cli({}); }, {"missing command"});
  expect_config_error([] { (void)parse_cli({"fly"}); }, {"unknown command"});
  expect_config_error([] { (void)parse_cli({"run", "--boost"}); },
                      {"unknown option: --boost"});
  expect_config_error([] { (void)parse_cli({"run", "--days"}); },
                      {"missing value for --days"});
  expect_config_error([] { (void)parse_cli({"run", "--days", "0"}); },
                      {"'--days' must be in [1, 100000]"});
  expect_config_error([] { (void)parse_cli({"run", "--headroom", "0"}); },
                      {"(0, 1]"});
  expect_config_error([] { (void)parse_cli({"run", "--strategy", "psychic"}); },
                      {"psychic", "greedydual"});
  expect_config_error([] { (void)parse_cli({"run", "--strategy", "lru|lfu"}); },
                      {"unknown value 'lru|lfu'"});
  expect_config_error([] { (void)parse_cli({"run", "--fail", "3", "0"}); },
                      {"--fail", "(0, 1]"});
  expect_config_error([] { (void)parse_cli({"gen"}); }, {"output file"});
  expect_config_error(
      [] {
        (void)parse_cli({"run", "--users", "4294967295", "--scale-pop", "2"});
      },
      {"--scale-pop"});
  const auto path = write_file("empty.scn", "[workload]\n");
  expect_config_error(
      [&] { (void)parse_cli({"run", "--scenario", path, "--trace", "t.csv"}); },
      {"--trace"});
  expect_config_error(
      [&] { (void)parse_cli({"run", "--scenario", path, "--scenario", path}); },
      {"twice"});
  expect_config_error(
      [] { (void)parse_cli({"run", "--scenario", "/no/such/file.scn"}); },
      {"cannot open"});
}

// ---------------------------------------------------------------------------
// Seeded grammar fuzzer
// ---------------------------------------------------------------------------

// The draw in flight, printed if the process dies on it: a library
// contract abort (SystemConfig::validate() is a precondition check) or a
// bad memory access.  The handler then restores the previous action
// (the default, or a sanitizer's) and returns, so the signal is raised
// again into it.
char g_repro[1024];
constexpr int kFatalSignals[] = {SIGABRT, SIGSEGV};
struct sigaction g_previous[std::size(kFatalSignals)];

extern "C" void print_repro_and_chain(int signal) {
  const auto ignored = ::write(2, g_repro, std::strlen(g_repro));
  (void)ignored;
  for (std::size_t i = 0; i < std::size(kFatalSignals); ++i) {
    if (kFatalSignals[i] == signal) sigaction(signal, &g_previous[i], nullptr);
  }
}

const char* const kMalformed[] = {
    "", " ", "abc", "1x", "0x10", "1e999", "nan", "inf", "--", "1.5.2",
    "+", "-", "9999999999999999999999", "1,000", "\xd9\xa1", "|",
    "lru|lfu", "none|top-popular"};

const char* const kJunkLines[] = {
    "[bogus]", "[workload", "just words", "= 3", "days = ", "[]",
    "[workload]", "seed = 1", "# comment", "   "};

std::string draw_value(Rng& rng, const ConfigKey& row) {
  const auto malformed = [&] {
    return std::string(kMalformed[rng.uniform_u64(std::size(kMalformed))]);
  };
  const auto [lo, hi, lo_open] = row.bounds;
  const auto pick = rng.uniform_u64(6);  // lo, hi, inside, <lo, >hi, junk
  if (pick == 5) return malformed();
  switch (row.kind) {
    case ValueKind::Int:
    case ValueKind::Flag: {
      const bool flag = row.kind == ValueKind::Flag;
      const auto a = flag ? 0 : static_cast<std::int64_t>(lo);
      const auto b = flag ? 1 : static_cast<std::int64_t>(hi);
      const std::int64_t values[] = {a, b, rng.uniform_int(a, b), a - 1, b + 1};
      return std::to_string(values[pick]);
    }
    case ValueKind::Real: {
      const double values[] = {
          lo, hi, rng.uniform_double(lo, hi),
          lo_open ? lo : std::nextafter(lo, -1e300),
          std::nextafter(hi, 1e300)};
      return format(values[pick]);
    }
    case ValueKind::Seed: {
      const char* values[] = {"0", "18446744073709551615", "12345", "-1",
                              "18446744073709551616"};
      return pick == 2 ? std::to_string(rng.next_u64()) : values[pick];
    }
    case ValueKind::Name: {
      const auto names = split_names(row);
      return pick < 3 ? names[rng.uniform_u64(names.size())] : malformed();
    }
    case ValueKind::Text:
      return pick < 3 ? "a summary" : malformed();
  }
  return malformed();
}

TEST(ConfigGrammarFuzz, EveryDrawParsesToAValidConfigOrANamedError) {
  constexpr std::uint64_t kBaseSeed = 0xC0F1'6000;
  constexpr int kDraws = 4000;
  std::vector<const ConfigKey*> cli_rows, file_rows;
  for (const auto& row : config_keys()) {
    if (row.cli != nullptr) cli_rows.push_back(&row);
    if (row.section != nullptr) file_rows.push_back(&row);
  }
  struct sigaction action {};
  action.sa_handler = print_repro_and_chain;
  sigemptyset(&action.sa_mask);
  for (std::size_t i = 0; i < std::size(kFatalSignals); ++i) {
    sigaction(kFatalSignals[i], &action, &g_previous[i]);
  }
  int accepted = 0;
  for (int n = 0; n < kDraws; ++n) {
    const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(n);
    Rng rng(seed);
    const bool cli = rng.bernoulli(0.5);
    const auto& rows = cli ? cli_rows : file_rows;
    std::vector<const ConfigKey*> drawn(1 + rng.uniform_u64(3));
    for (auto& row : drawn) row = rows[rng.uniform_u64(rows.size())];

    // One line: seed, surface, then each key = value drawn.
    std::string repro = "repro: seed=" + std::to_string(seed) +
                        " surface=" + (cli ? "cli" : "scenario");
    Args args = {"run"};
    std::string text;
    const char* section = nullptr;
    for (const auto* row : drawn) {
      const auto value = draw_value(rng, *row);
      repro += ' ';
      if (cli) {
        repro += row->cli;
      } else {
        repro += row->section;
        repro += '.';
        repro += row->key;
      }
      repro += "='" + value + "'";
      if (cli) {
        args.push_back(row->cli);
        // A bare flag takes no value; sometimes pass one anyway.
        if (row->kind != ValueKind::Flag || rng.bernoulli(0.2)) {
          args.push_back(value);
        }
      } else {
        // Rarely, the header is left out: the key lands in the previous
        // section, or before any.
        if (row->section != section && !rng.bernoulli(0.1)) {
          text += std::string("[") + row->section + "]\n";
          section = row->section;
        }
        text += std::string(row->key) + " = " + value + "\n";
      }
    }
    if (!cli && rng.bernoulli(0.2)) {
      const std::string junk =
          kJunkLines[rng.uniform_u64(std::size(kJunkLines))];
      text.insert(rng.bernoulli(0.5) ? 0 : text.size(), junk + "\n");
      repro += " junk='" + junk + "'";
    }
    repro += "\n";
    std::snprintf(g_repro, sizeof g_repro, "%s", repro.c_str());

    try {
      const auto config = cli ? parse_cli(args).config : parse_text(text);
      config.system.validate();
      config.scenario.workload.validate();
      ++accepted;
    } catch (const ConfigError& error) {
      const std::string what = error.what();
      if (what.empty() ||
          (!cli && what.find("line ") == std::string::npos)) {
        ADD_FAILURE() << "unnamed or unnumbered error '" << what << "'\n"
                      << repro;
      }
    } catch (const std::exception& error) {
      ADD_FAILURE() << "not a ConfigError: " << error.what() << "\n" << repro;
    }
  }
  for (std::size_t i = 0; i < std::size(kFatalSignals); ++i) {
    sigaction(kFatalSignals[i], &g_previous[i], nullptr);
  }
  // The draws must reach the accepting side of the grammar too.
  EXPECT_GT(accepted, kDraws / 10);
  EXPECT_LT(accepted, kDraws * 9 / 10);
}

}  // namespace
}  // namespace vodcache::scenario
