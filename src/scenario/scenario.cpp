#include "scenario/scenario.hpp"

#include <filesystem>
#include <fstream>
#include <istream>
#include <map>
#include <utility>

#include "scenario/adaptors.hpp"
#include "scenario/config_keys.hpp"

namespace vodcache::scenario {

namespace {

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         (text.back() == ' ' || text.back() == '\t' || text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

[[noreturn]] void parse_fail(std::size_t line_number, const std::string& what) {
  throw ConfigError("scenario parse error at line " +
                    std::to_string(line_number) + ": " + what);
}

}  // namespace

RunConfig parse_scenario(std::istream& in, std::string name, RunConfig base) {
  RunConfig config = std::move(base);
  config.scenario.name = std::move(name);

  std::string line;
  std::size_t line_number = 0;
  const SectionEntry* section = nullptr;
  // (section, key) pairs already seen: a silently-ignored second value is
  // exactly the kind of config drift this format exists to prevent.
  std::map<std::pair<std::string, std::string>, std::size_t> seen;

  while (std::getline(in, line)) {
    ++line_number;
    const auto text = trim(line);
    if (text.empty() || text.front() == '#') continue;

    if (text.front() == '[') {
      if (text.back() != ']' || text.size() < 3) {
        parse_fail(line_number, "malformed section header (use [name])");
      }
      const auto header = trim(text.substr(1, text.size() - 2));
      section = find_section(header);
      if (section == nullptr) {
        parse_fail(line_number, "unknown section [" + std::string(header) +
                                    "] (use " + section_keys() + ")");
      }
      if (!seen.emplace(std::pair{section->key, ""}, line_number).second) {
        parse_fail(line_number,
                   "duplicate section [" + std::string(header) + "]");
      }
      // A section's presence alone takes effect (an adaptor is enabled
      // with its spec defaults; [tiers] creates the hub).
      if (section->enter != nullptr) section->enter(config);
      continue;
    }

    const auto eq = text.find('=');
    if (eq == std::string_view::npos) {
      parse_fail(line_number, "expected 'key = value' or '[section]'");
    }
    if (section == nullptr) {
      parse_fail(line_number, "key before any [section] header");
    }
    const auto key = trim(text.substr(0, eq));
    const auto value = trim(text.substr(eq + 1));
    if (key.empty()) parse_fail(line_number, "empty key");
    if (value.empty()) {
      parse_fail(line_number, "empty value for '" + std::string(key) + "'");
    }
    const auto [it, inserted] = seen.emplace(
        std::pair{std::string(section->key), std::string(key)}, line_number);
    if (!inserted) {
      parse_fail(line_number, "duplicate key '" + std::string(key) +
                                  "' in section [" + section->key +
                                  "] (first set at line " +
                                  std::to_string(it->second) + ")");
    }
    const auto* row = find_scenario_key(section->key, key);
    if (row == nullptr) {
      parse_fail(line_number, "unknown key '" + std::string(key) +
                                  "' in section [" + section->key + "] (see " +
                                  section_key_list(section->key) + ")");
    }
    try {
      apply_key(*row, key, value, config);
    } catch (const ConfigError& error) {
      parse_fail(line_number, error.what());
    }
  }
  // The storm expands only once all of its keys are known.
  if (seen.count({"failure_storm", ""}) != 0) {
    apply_storm(config.scenario.storm, config.system);
  }
  try {
    check_config(config);
  } catch (const ConfigError& error) {
    throw ConfigError("scenario error at end of file (line " +
                      std::to_string(line_number) + "): " + error.what());
  }
  return config;
}

RunConfig load_scenario_file(const std::string& path, RunConfig base) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open scenario file: " + path);
  // File stem as the scenario's name: "examples/scenarios/flash_crowd.scn"
  // -> "flash_crowd".
  return parse_scenario(in, std::filesystem::path(path).stem().string(),
                        std::move(base));
}

void apply_storm(const FailureStormSpec& storm, core::SystemConfig& config) {
  for (std::uint32_t k = 0; k < storm.waves; ++k) {
    core::SystemConfig::PeerFailure wave;
    wave.time = storm.start + sim::SimTime::millis(
        static_cast<std::int64_t>(k) * storm.period.millis_count());
    wave.fraction = storm.fraction;
    // Distinct seed per wave: a storm that wipes the same peers every
    // time would measure one failure, not a storm.
    wave.seed = storm.seed + k;
    config.peer_failures.push_back(wave);
  }
}

void stack_adaptors(std::vector<std::unique_ptr<trace::SessionSource>>& parts,
                    const ScenarioSpec& spec,
                    std::uint32_t neighborhood_size) {
  // Skew first, flash crowd last: the premiere spike overrides background
  // churn, not the other way round (documented in scenario.hpp).
  if (spec.skew.enabled) {
    parts.push_back(std::make_unique<NeighborhoodSkewSource>(
        *parts.back(), spec.skew, neighborhood_size));
  }
  if (spec.release_waves.enabled) {
    parts.push_back(std::make_unique<ReleaseWavesSource>(
        *parts.back(), spec.release_waves));
  }
  if (spec.flash_crowd.enabled) {
    parts.push_back(
        std::make_unique<FlashCrowdSource>(*parts.back(), spec.flash_crowd));
  }
}

ScenarioWorkload::ScenarioWorkload(const ScenarioSpec& spec,
                                   std::uint32_t neighborhood_size) {
  parts_.push_back(std::make_unique<trace::GeneratorSource>(spec.workload));
  stack_adaptors(parts_, spec, neighborhood_size);
}

}  // namespace vodcache::scenario
