// Declarative workload scenarios: adversarial "what if" workloads as
// config files instead of C++.
//
// The paper evaluates one workload shape — PowerInfo-like Zipf popularity
// with a diurnal curve.  A scenario file composes that generator with
// stream adaptors (src/scenario/adaptors.hpp) and system-side schedules
// into a named workload a cable operator actually fears:
//
//   * flash crowds — a premiere pulls a large share of an evening's
//     sessions onto one hot title;
//   * catalog release waves — the popularity head migrates to a fresh
//     block of programs every few hours, churning the cache;
//   * popularity-decay regimes — generator freshness knobs retuned so the
//     head decays in hours instead of days;
//   * per-neighborhood heterogeneity — population concentrated into hot
//     neighborhoods, regional catalog affinity skewing what each
//     neighborhood watches;
//   * failure storms — repeated peer-wipe waves on a schedule.
//
// File format: line-oriented `key = value` under `[section]` headers.
// '#' lines are comments.  Sections and keys are strict: an unknown
// section or key, a malformed value, or a duplicate key is a parse error
// (ConfigError with the line number), never a silent default.  Every
// section's keys, their bounds and their setters are rows of the
// config-key table (scenario/config_keys.hpp) — the single source of truth
// behind this parser, the CLI's flags, `vodcache --help` and
// `--list-scenarios` — so a scenario key and its CLI flag cannot drift.
//
// Everything stays streaming: adaptors are single-pass
// trace::SessionSource wrappers that draw their RNG in input order, so a
// million-user scenario run keeps the pipeline's O(1)-in-sessions memory
// and every report stays bit-identical across thread counts, chunk sizes,
// and streamed-vs-materialized (pinned in tests/scenario_test.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "sim/time.hpp"
#include "trace/generator.hpp"
#include "trace/session_source.hpp"

namespace vodcache::scenario {

// [flash_crowd]: during [start, start + duration), each session is
// redirected with probability `capture` to the catalog's `title_rank`-th
// hottest program available at the window start (rank 1 = highest base
// weight; ties broken by lower id).  Durations are clamped to the target's
// length.
struct FlashCrowdSpec {
  bool enabled = false;
  std::uint32_t title_rank = 1;
  sim::SimTime start;
  sim::SimTime duration = sim::SimTime::hours(4);
  double capture = 0.5;
  std::uint64_t seed = 0xF1A5'C0DE;
};

// [release_waves]: wave k covers [k*period, (k+1)*period); its "release
// block" is the next `wave_size` programs of the catalog (rotating, ids
// wrap).  For `window` after each wave begins, sessions are redirected
// with probability `capture` to a uniformly-random block program already
// introduced by the wave start — the Zipf head keeps moving.
struct ReleaseWavesSpec {
  bool enabled = false;
  sim::SimTime period = sim::SimTime::hours(24);
  sim::SimTime window = sim::SimTime::hours(12);
  std::uint32_t wave_size = 8;
  double capture = 0.35;
  std::uint64_t seed = 0x4E1E'A5E5;
};

// [neighborhood_skew]: with probability `population_share` a session's
// viewer is replaced by a uniformly-random subscriber living in the first
// `hot_neighborhoods` neighborhoods (population mix skew).  With
// `regions` > 0 the catalog is split into `regions` equal slices,
// neighborhood n prefers slice n % regions, and with probability
// `regional_affinity` a session is remapped to a uniformly-random
// back-catalog program of its neighborhood's slice (catalog mix skew).
struct NeighborhoodSkewSpec {
  bool enabled = false;
  std::uint32_t hot_neighborhoods = 1;
  double population_share = 0.0;
  std::uint32_t regions = 0;
  double regional_affinity = 0.0;
  std::uint64_t seed = 0x5'11E'D;
};

// [failure_storm]: `waves` peer-wipe waves, the first at `start`, then
// every `period`; each wipes each peer independently with probability
// `fraction`.  Expands into SystemConfig::peer_failures (wave k gets seed
// `seed + k`, so consecutive waves hit different peer draws).
struct FailureStormSpec {
  bool enabled = false;
  sim::SimTime start;
  std::uint32_t waves = 1;
  sim::SimTime period = sim::SimTime::hours(24);
  double fraction = 0.2;
  std::uint64_t seed = 0xFA11;
};

struct ScenarioSpec {
  std::string name;     // file stem (or caller-provided hint)
  std::string summary;  // [scenario] summary = ...

  // [workload] + [popularity] overrides applied onto the defaults.
  trace::GeneratorConfig workload;

  FlashCrowdSpec flash_crowd;
  ReleaseWavesSpec release_waves;
  NeighborhoodSkewSpec skew;
  FailureStormSpec storm;
};

// Everything the config keys (scenario/config_keys.hpp) set: a generated
// workload and its adaptors, the system under test, and the CLI's
// source-chain knobs.
struct RunConfig {
  ScenarioSpec scenario;
  core::SystemConfig system;
  std::uint32_t scale_pop = 1;  // trace/scaler.hpp population copies
  std::uint32_t scale_cat = 1;  // trace/scaler.hpp catalog remaps
  bool materialize = false;     // buffer the workload as a Trace
};

// Parses a scenario from a stream / file onto `base`: each key the file
// sets overwrites its field, every other field keeps the caller's value
// (e.g. the CLI's earlier --days), the [failure_storm] schedule is
// appended to system.peer_failures, and check_config() runs last.  Throws
// ConfigError with a line number on any malformed input.
[[nodiscard]] RunConfig parse_scenario(std::istream& in, std::string name,
                                       RunConfig base = {});
[[nodiscard]] RunConfig load_scenario_file(const std::string& path,
                                           RunConfig base = {});

// Appends the storm's waves to config.peer_failures.
void apply_storm(const FailureStormSpec& storm, core::SystemConfig& config);

// Stacks the spec's enabled adaptors (skew, then release waves, then
// flash crowd — so the spike wins over background churn) onto
// `parts.back()`; every new link is appended so the caller keeps the whole
// chain alive.  `neighborhood_size` must be the value the simulation will
// actually run with (the skew adaptor replays the topology's placement).
void stack_adaptors(std::vector<std::unique_ptr<trace::SessionSource>>& parts,
                    const ScenarioSpec& spec, std::uint32_t neighborhood_size);

// Convenience owner for tests and benches: generator + adaptors in one
// object.  `source()` is the composed workload.
class ScenarioWorkload {
 public:
  ScenarioWorkload(const ScenarioSpec& spec, std::uint32_t neighborhood_size);

  [[nodiscard]] const trace::SessionSource& source() const {
    return *parts_.back();
  }

 private:
  std::vector<std::unique_ptr<trace::SessionSource>> parts_;
};

}  // namespace vodcache::scenario
