// Scenario engine: file-format strictness, registry coverage, adaptor
// semantics, and the acceptance pin — every shipped scenario file runs
// bit-identically across thread counts and streamed-vs-materialized.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/report_json.hpp"
#include "core/vod_system.hpp"
#include "hfc/topology.hpp"
#include "scenario/adaptors.hpp"
#include "scenario/config_keys.hpp"
#include "scenario/scenario.hpp"
#include "test_support.hpp"
#include "trace/generator.hpp"
#include "trace/scaler.hpp"

namespace vodcache::scenario {
namespace {

RunConfig parse_text(const std::string& text) {
  std::istringstream in(text);
  return parse_scenario(in, "inline");
}

// EXPECT that parsing fails and the message mentions every fragment.
void expect_parse_error(const std::string& text,
                        const std::vector<std::string>& fragments) {
  try {
    (void)parse_text(text);
    FAIL() << "expected a parse error for:\n" << text;
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    for (const auto& fragment : fragments) {
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "message '" << what << "' lacks '" << fragment << "'";
    }
  }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(ScenarioParser, FullSpecRoundTrips) {
  const auto config = parse_text(R"(# comment
[scenario]
summary = the kitchen sink

[workload]
days = 9
users = 1234
programs = 321
sessions_per_day = 3.5
seed = 42

[popularity]
zipf_exponent = 0.8
freshness_tau_days = 0.75

[system]
neighborhood = 111
per_peer_gb = 2
warmup_days = 2

[flash_crowd]
title_rank = 3
start_hour = 50
duration_hours = 6
capture = 0.9
seed = 7

[release_waves]
period_hours = 8
window_hours = 4
wave_size = 5
capture = 0.25

[neighborhood_skew]
hot_neighborhoods = 2
population_share = 0.4
regions = 3
regional_affinity = 0.6

[failure_storm]
start_hour = 24
waves = 3
period_hours = 6
fraction = 0.15
)");
  const auto& spec = config.scenario;
  EXPECT_EQ(spec.name, "inline");
  EXPECT_EQ(spec.summary, "the kitchen sink");
  EXPECT_EQ(spec.workload.days, 9);
  EXPECT_EQ(spec.workload.user_count, 1234u);
  EXPECT_EQ(spec.workload.program_count, 321u);
  EXPECT_DOUBLE_EQ(spec.workload.sessions_per_user_per_day, 3.5);
  EXPECT_EQ(spec.workload.seed, 42u);
  EXPECT_DOUBLE_EQ(spec.workload.zipf_exponent, 0.8);
  EXPECT_DOUBLE_EQ(spec.workload.freshness_tau_days, 0.75);
  EXPECT_EQ(config.system.neighborhood_size, 111u);
  EXPECT_EQ(config.system.per_peer_storage, DataSize::gigabytes(2));
  EXPECT_EQ(config.system.warmup, sim::SimTime::days(2));

  EXPECT_TRUE(spec.flash_crowd.enabled);
  EXPECT_EQ(spec.flash_crowd.title_rank, 3u);
  EXPECT_EQ(spec.flash_crowd.start, sim::SimTime::hours(50));
  EXPECT_EQ(spec.flash_crowd.duration, sim::SimTime::hours(6));
  EXPECT_DOUBLE_EQ(spec.flash_crowd.capture, 0.9);
  EXPECT_EQ(spec.flash_crowd.seed, 7u);

  EXPECT_TRUE(spec.release_waves.enabled);
  EXPECT_EQ(spec.release_waves.period, sim::SimTime::hours(8));
  EXPECT_EQ(spec.release_waves.window, sim::SimTime::hours(4));
  EXPECT_EQ(spec.release_waves.wave_size, 5u);

  EXPECT_TRUE(spec.skew.enabled);
  EXPECT_EQ(spec.skew.hot_neighborhoods, 2u);
  EXPECT_DOUBLE_EQ(spec.skew.population_share, 0.4);
  EXPECT_EQ(spec.skew.regions, 3u);

  EXPECT_TRUE(spec.storm.enabled);
  EXPECT_EQ(spec.storm.start, sim::SimTime::hours(24));
  EXPECT_EQ(spec.storm.waves, 3u);
  EXPECT_DOUBLE_EQ(spec.storm.fraction, 0.15);
  EXPECT_EQ(config.system.peer_failures.size(), 3u);  // the expanded storm
}

TEST(ScenarioParser, BaseWorkloadSeedsUnsetKeys) {
  // A file that omits a [workload] key inherits the caller's value (the
  // CLI passes its current --days/--users state), never the raw
  // generator default — `--days 10` before `--scenario` survives a file
  // that only sets users.
  RunConfig base;
  base.scenario.workload.days = 10;
  base.scenario.workload.user_count = 5000;
  std::istringstream in("[workload]\nusers = 77\n");
  const auto config = parse_scenario(in, "inline", base);
  EXPECT_EQ(config.scenario.workload.days, 10);
  EXPECT_EQ(config.scenario.workload.user_count, 77u);
}

TEST(ScenarioParser, SectionsWithoutKeysAreEnabledWithDefaults) {
  const auto spec = parse_text("[flash_crowd]\n").scenario;
  EXPECT_TRUE(spec.flash_crowd.enabled);
  EXPECT_EQ(spec.flash_crowd.title_rank, 1u);
  EXPECT_FALSE(spec.release_waves.enabled);
  EXPECT_FALSE(spec.skew.enabled);
  EXPECT_FALSE(spec.storm.enabled);
}

TEST(ScenarioParser, CrlfAndWhitespaceAreTolerated) {
  const auto spec =
      parse_text("[workload]\r\n  days   =  5 \r\n\r\n# c\r\nusers = 77\r\n")
          .scenario;
  EXPECT_EQ(spec.workload.days, 5);
  EXPECT_EQ(spec.workload.user_count, 77u);
}

TEST(ScenarioParser, RejectsUnknownSection) {
  expect_parse_error("[flash_mob]\n",
                     {"line 1", "unknown section", "flash_crowd"});
}

TEST(ScenarioParser, RejectsUnknownKey) {
  expect_parse_error("[flash_crowd]\nboost = 3\n",
                     {"line 2", "unknown key 'boost'", "title_rank"});
}

TEST(ScenarioParser, RejectsMalformedValue) {
  expect_parse_error("[workload]\ndays = 3O\n",
                     {"line 2", "malformed value", "days"});
}

TEST(ScenarioParser, RejectsOutOfRangeValue) {
  expect_parse_error("[flash_crowd]\ncapture = 1.5\n",
                     {"line 2", "capture", "[0"});
}

TEST(ScenarioParser, SeedsAreFullRangeUnsigned) {
  // uint64 seeds beyond int64 range are legal...
  const auto spec =
      parse_text("[workload]\nseed = 9223372036854775808\n").scenario;
  EXPECT_EQ(spec.workload.seed, 9223372036854775808ULL);
  // ...and a negative seed is malformed, not a silent wraparound.
  expect_parse_error("[workload]\nseed = -1\n",
                     {"line 2", "malformed value", "seed"});
}

TEST(ScenarioParser, RejectsDuplicateKey) {
  expect_parse_error("[workload]\ndays = 3\ndays = 4\n",
                     {"line 3", "duplicate key 'days'", "line 2"});
}

TEST(ScenarioParser, RejectsDuplicateSection) {
  expect_parse_error("[workload]\ndays = 3\n[workload]\n",
                     {"line 3", "duplicate section"});
}

TEST(ScenarioParser, RejectsKeyBeforeSection) {
  expect_parse_error("days = 3\n", {"line 1", "before any [section]"});
}

TEST(ScenarioParser, RejectsMalformedHeaderAndEmptyValue) {
  expect_parse_error("[workload\n", {"line 1", "section header"});
  expect_parse_error("[workload]\ndays =\n", {"line 2", "empty value"});
  expect_parse_error("[workload]\njust words\n",
                     {"line 2", "key = value"});
}

TEST(ScenarioRegistry, EverySectionIsFindableAndListed) {
  const auto keys = section_keys();
  for (const auto& entry : section_registry()) {
    EXPECT_EQ(find_section(entry.key), &entry);
    EXPECT_NE(keys.find(entry.key), std::string::npos);
  }
  EXPECT_EQ(find_section("no_such_section"), nullptr);
}

// ---------------------------------------------------------------------------
// Validation and system application
// ---------------------------------------------------------------------------

TEST(ScenarioValidate, WindowsMustFitTheHorizon) {
  // Cross-field rules run at the end of the file, against its workload.
  expect_parse_error("[workload]\ndays = 2\n[flash_crowd]\n"
                     "start_hour = 47\nduration_hours = 2\n",
                     {"line 5", "flash_crowd window", "horizon"});
  EXPECT_NO_THROW(parse_text("[workload]\ndays = 2\n[flash_crowd]\n"
                             "start_hour = 40\nduration_hours = 2\n"));
  expect_parse_error("[workload]\ndays = 2\n[failure_storm]\n"
                     "start_hour = 72\n",
                     {"line 4", "failure_storm starts past"});
}

TEST(ScenarioValidate, SkewMustHaveAnEffect) {
  expect_parse_error("[neighborhood_skew]\nhot_neighborhoods = 1\n",
                     {"line 2", "neighborhood_skew"});
  EXPECT_NO_THROW(parse_text("[neighborhood_skew]\nhot_neighborhoods = 1\n"
                             "population_share = 0.5\n"));
}

TEST(ScenarioApplySystem, OverridesAndStormSchedule) {
  const auto config = parse_text(R"([system]
neighborhood = 123
per_peer_gb = 3
warmup_days = 2
[failure_storm]
start_hour = 10
waves = 3
period_hours = 5
fraction = 0.2
seed = 99
)").system;
  EXPECT_EQ(config.neighborhood_size, 123u);
  EXPECT_EQ(config.per_peer_storage, DataSize::gigabytes(3));
  EXPECT_EQ(config.warmup, sim::SimTime::days(2));
  ASSERT_EQ(config.peer_failures.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(config.peer_failures[k].time,
              sim::SimTime::hours(10) + sim::SimTime::hours(5 * k));
    EXPECT_DOUBLE_EQ(config.peer_failures[k].fraction, 0.2);
    EXPECT_EQ(config.peer_failures[k].seed, 99u + k);
  }
}

// ---------------------------------------------------------------------------
// Adaptor semantics
// ---------------------------------------------------------------------------

// A 4-program catalog with distinct weights: program 1 is the hottest,
// program 3 is a late release (introduced at hour 60).
trace::Catalog weighted_catalog() {
  std::vector<trace::ProgramInfo> programs(4);
  const double weights[] = {1.0, 9.0, 4.0, 6.0};
  for (std::size_t i = 0; i < programs.size(); ++i) {
    programs[i].length = sim::SimTime::minutes(30);
    programs[i].introduced =
        i == 3 ? sim::SimTime::hours(60) : sim::SimTime{};
    programs[i].base_weight = weights[i];
  }
  return trace::Catalog(std::move(programs));
}

std::vector<trace::SessionRecord> drain(const trace::SessionSource& source) {
  std::vector<trace::SessionRecord> sessions;
  auto stream = source.open();
  trace::SessionRecord record;
  while (stream->next(record)) sessions.push_back(record);
  return sessions;
}

void expect_same_sessions(const std::vector<trace::SessionRecord>& a,
                          const std::vector<trace::SessionRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start) << "at " << i;
    EXPECT_EQ(a[i].user, b[i].user) << "at " << i;
    EXPECT_EQ(a[i].program, b[i].program) << "at " << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << "at " << i;
  }
}

TEST(FlashCrowdAdaptor, RedirectsExactlyTheWindowAtFullCapture) {
  // Sessions at hours 1 (before), 10..13 (inside), 20 (after).
  const auto trace = test::make_trace(
      weighted_catalog(),
      {{3600, 0, 0, 600},
       {36000, 1, 2, 2400},  // duration 40 min > target length 30 min
       {37000, 2, 0, 600},
       {43000, 3, 2, 900},
       {72000, 4, 0, 600}},
      5, 2);
  const trace::SessionSource& base = trace;
  FlashCrowdSpec spec;
  spec.enabled = true;
  spec.title_rank = 1;
  spec.start = sim::SimTime::hours(10);
  spec.duration = sim::SimTime::hours(4);
  spec.capture = 1.0;
  const FlashCrowdSource crowd(base, spec);

  const auto sessions = drain(crowd);
  ASSERT_EQ(sessions.size(), 5u);
  EXPECT_EQ(sessions[0].program, ProgramId{0});  // before the window
  // Rank 1 among programs introduced by hour 10 = program 1 (weight 9;
  // program 3's weight 6 is not introduced yet and must be skipped).
  EXPECT_EQ(sessions[1].program, ProgramId{1});
  // Clamped to the target's 30-minute length.
  EXPECT_EQ(sessions[1].duration, sim::SimTime::minutes(30));
  EXPECT_EQ(sessions[2].program, ProgramId{1});
  EXPECT_EQ(sessions[3].program, ProgramId{1});
  EXPECT_EQ(sessions[4].program, ProgramId{0});  // after the window

  // Replays are identical, and the materialized twin matches the stream.
  expect_same_sessions(sessions, drain(crowd));
  expect_same_sessions(sessions, trace::materialize(crowd).sessions());
}

TEST(FlashCrowdAdaptor, RejectsImpossibleSpecs) {
  const auto trace =
      test::make_trace(weighted_catalog(), {{3600, 0, 0, 600}}, 1, 2);
  const trace::SessionSource& base = trace;
  FlashCrowdSpec spec;
  spec.enabled = true;
  spec.start = sim::SimTime::hours(47);
  spec.duration = sim::SimTime::hours(2);  // past the 2-day horizon
  EXPECT_THROW(FlashCrowdSource(base, spec), std::runtime_error);
  spec.start = sim::SimTime{};
  spec.duration = sim::SimTime::hours(1);
  spec.title_rank = 4;  // only 3 programs introduced at hour 0
  EXPECT_THROW(FlashCrowdSource(base, spec), std::runtime_error);
}

TEST(ReleaseWavesAdaptor, BlocksRotateAndRespectIntroduction) {
  // 10 sessions, one per hour, all on program 0; then one on program 1 at
  // the start of wave 3 (hour 12) and one at the start of the last wave,
  // wave 11 (hour 44).
  std::vector<test::SessionSpec> specs;
  for (int h = 0; h < 10; ++h) {
    specs.push_back({h * 3600, 0, 0, 600});
  }
  specs.push_back({12 * 3600, 0, 1, 600});
  specs.push_back({44 * 3600, 0, 1, 600});
  const auto trace = test::make_trace(weighted_catalog(), specs, 1, 2);
  const trace::SessionSource& base = trace;
  ReleaseWavesSpec spec;
  spec.enabled = true;
  spec.period = sim::SimTime::hours(4);
  spec.window = sim::SimTime::hours(4);
  spec.wave_size = 1;
  spec.capture = 1.0;
  const ReleaseWavesSource waves(base, spec);

  // 2-day horizon / 4h period = 12 waves; block k is program k mod 4,
  // except program 3 (introduced at hour 60) drops out of waves that
  // begin before its release.
  const auto sessions = drain(waves);
  ASSERT_EQ(sessions.size(), 12u);
  for (int h = 0; h < 10; ++h) {
    const auto expected = h < 4 ? 0u : (h < 8 ? 1u : 2u);
    EXPECT_EQ(sessions[h].program, ProgramId{expected}) << "hour " << h;
  }
  // Program 3 releases at hour 60, after every wave start in the 2-day
  // horizon — its waves (k = 3, 7, 11) all have empty blocks, so their
  // sessions keep their program.
  EXPECT_EQ(sessions[10].program, ProgramId{1});
  EXPECT_EQ(sessions[11].program, ProgramId{1});
  expect_same_sessions(sessions, trace::materialize(waves).sessions());
}

TEST(NeighborhoodSkewAdaptor, ConcentratesPopulationAndRegionalizesCatalog) {
  // 60 users in neighborhoods of 20 (3 neighborhoods), sessions spread
  // over all users.
  std::vector<test::SessionSpec> specs;
  for (std::uint32_t u = 0; u < 60; ++u) {
    specs.push_back({static_cast<std::int64_t>(3600 + u), u, 2, 600});
  }
  const auto trace = test::make_trace(weighted_catalog(), specs, 60, 1);
  const trace::SessionSource& base = trace;
  NeighborhoodSkewSpec spec;
  spec.enabled = true;
  spec.hot_neighborhoods = 1;
  spec.population_share = 1.0;
  spec.regions = 2;
  spec.regional_affinity = 1.0;
  const NeighborhoodSkewSource skew(base, spec, 20);
  // The placement the run (and so the adaptor) uses for 60 users.
  const auto topology = hfc::Topology::build(60, 20);

  const auto sessions = drain(skew);
  ASSERT_EQ(sessions.size(), 60u);
  for (const auto& session : sessions) {
    // Every session's viewer now lives in neighborhood 0...
    EXPECT_EQ(topology.neighborhood_of(session.user).value(), 0u);
    // ...whose region (0 % 2) owns catalog slice [0, 2): back-catalog
    // programs 0 and 1 only (program 3 is a late release, and slice 1
    // holds {2, 3}).
    EXPECT_LT(session.program.value(), 2u);
  }
  expect_same_sessions(sessions, trace::materialize(skew).sessions());
}

TEST(NeighborhoodSkewAdaptor, RejectsTooManyHotNeighborhoods) {
  const auto trace =
      test::make_trace(weighted_catalog(), {{3600, 0, 0, 600}}, 10, 1);
  const trace::SessionSource& base = trace;
  NeighborhoodSkewSpec spec;
  spec.enabled = true;
  spec.hot_neighborhoods = 5;  // 10 users / 20 per hood = 1 neighborhood
  spec.population_share = 1.0;
  EXPECT_THROW(NeighborhoodSkewSource(base, spec, 20), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Adaptor goldens
// ---------------------------------------------------------------------------

// FNV-1a 64-bit over a drained stream: every field of every record, then
// the record count and the source's four facts (catalog, user count,
// horizon, session-count hint).  The streamed == materialized pins cannot
// catch a change in RNG draw order, because materialize() drains the same
// stream; these fixed digests can.
class Fnv64 {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(sim::SimTime time) {
    add(static_cast<std::uint64_t>(time.millis_count()));
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::uint64_t stream_digest(const trace::SessionSource& source) {
  Fnv64 fnv;
  std::uint64_t count = 0;
  auto stream = source.open();
  trace::SessionRecord record;
  while (stream->next(record)) {
    fnv.add(record.start);
    fnv.add(std::uint64_t{record.user.value()});
    fnv.add(std::uint64_t{record.program.value()});
    fnv.add(record.duration);
    ++count;
  }
  fnv.add(count);
  fnv.add(std::uint64_t{source.catalog().size()});
  for (const auto& program : source.catalog().programs()) {
    fnv.add(program.length);
    fnv.add(program.introduced);
    fnv.add(program.base_weight);
    fnv.add(program.fresh_weight);
  }
  fnv.add(std::uint64_t{source.user_count()});
  fnv.add(source.horizon());
  fnv.add(source.session_count_hint());
  return fnv.value();
}

// 200 users, 60 programs (some released mid-run), 3 days.
trace::GeneratorConfig golden_workload() {
  return test::small_workload(3, 20070625);
}

trace::GeneratorSource golden_base() {
  return trace::GeneratorSource(golden_workload());
}

constexpr std::uint32_t kGoldenNeighborhood = 50;  // 4 neighborhoods

// The golden stream's inputs: the base workload and the adaptor stack,
// each adaptor with its default seed.
std::string golden_repro(const char* adaptors) {
  return test::repro_line(golden_workload()) +
         " nsize=" + std::to_string(kGoldenNeighborhood) +
         " adaptors=" + adaptors;
}

FlashCrowdSpec golden_flash_crowd() {
  FlashCrowdSpec spec;
  spec.enabled = true;
  spec.title_rank = 2;
  spec.start = sim::SimTime::hours(30);
  spec.duration = sim::SimTime::hours(12);
  spec.capture = 0.5;
  return spec;
}

ReleaseWavesSpec golden_release_waves() {
  ReleaseWavesSpec spec;
  spec.enabled = true;
  spec.period = sim::SimTime::hours(8);
  spec.window = sim::SimTime::hours(3);
  spec.wave_size = 5;
  spec.capture = 0.35;
  return spec;
}

NeighborhoodSkewSpec golden_skew() {
  NeighborhoodSkewSpec spec;
  spec.enabled = true;
  spec.hot_neighborhoods = 1;
  spec.population_share = 0.25;
  spec.regions = 3;
  spec.regional_affinity = 0.4;
  return spec;
}

TEST(AdaptorGolden, FlashCrowd) {
  const auto base = golden_base();
  const FlashCrowdSource crowd(base, golden_flash_crowd());
  EXPECT_EQ(stream_digest(crowd), 0x7F329B39CA24F088ULL)
      << golden_repro("flash_crowd");
}

TEST(AdaptorGolden, ReleaseWaves) {
  const auto base = golden_base();
  const ReleaseWavesSource waves(base, golden_release_waves());
  EXPECT_EQ(stream_digest(waves), 0xAEDBFAC9A95786EBULL)
      << golden_repro("release_waves");
}

TEST(AdaptorGolden, NeighborhoodSkew) {
  const auto base = golden_base();
  const NeighborhoodSkewSource skew(base, golden_skew(), kGoldenNeighborhood);
  EXPECT_EQ(stream_digest(skew), 0x2DEDC38EA055E300ULL)
      << golden_repro("neighborhood_skew");
}

TEST(AdaptorGolden, NeighborhoodSkewRegionsOnly) {
  // population_share 0 skips the population draw entirely.
  const auto base = golden_base();
  auto spec = golden_skew();
  spec.population_share = 0.0;
  const NeighborhoodSkewSource skew(base, spec, kGoldenNeighborhood);
  EXPECT_EQ(stream_digest(skew), 0xEBF391E903A2A95AULL)
      << golden_repro("neighborhood_skew(population_share=0)");
}

TEST(AdaptorGolden, CatalogScaled) {
  const auto base = golden_base();
  // x1 draws nothing and passes the input through.
  EXPECT_EQ(stream_digest(trace::CatalogScaledSource(base, 1)),
            0x50D8BA74A1878071ULL)
      << golden_repro("catalog_scaled(1)");
  EXPECT_EQ(stream_digest(trace::CatalogScaledSource(base, 3)),
            0x73220C2FED9C94B1ULL)
      << golden_repro("catalog_scaled(3)");
}

TEST(AdaptorGolden, PopulationScaled) {
  const auto base = golden_base();
  EXPECT_EQ(stream_digest(trace::PopulationScaledSource(base, 2)),
            0x19EDA05B497D1ACFULL)
      << golden_repro("population_scaled(2)");
}

TEST(AdaptorGolden, Stack) {
  // skew -> release waves -> flash crowd -> catalog x2.
  const auto base = golden_base();
  const NeighborhoodSkewSource skew(base, golden_skew(), kGoldenNeighborhood);
  const ReleaseWavesSource waves(skew, golden_release_waves());
  const FlashCrowdSource crowd(waves, golden_flash_crowd());
  const trace::CatalogScaledSource scaled(crowd, 2);
  EXPECT_EQ(stream_digest(scaled), 0x7026056502895701ULL)
      << golden_repro(
             "neighborhood_skew,release_waves,flash_crowd,catalog_scaled(2)");
}

// ---------------------------------------------------------------------------
// [tiers]
// ---------------------------------------------------------------------------

TEST(ScenarioTiers, SectionRoundTripsAndAppliesToConfig) {
  const auto config = parse_text(R"([workload]
days = 4

[tiers]
hub_fan_in = 4
hub_capacity_gb = 120
hub_link_gbps = 0.5
hub_cost_per_gb = 0.02
origin_cost_per_gb = 0.07
prefetch = oracle
refresh_hours = 12
outage_start_hour = 60
outage_hours = 6
)").system;
  ASSERT_EQ(config.tiers.size(), 1u);
  EXPECT_EQ(config.tiers[0].name, "hub");
  EXPECT_EQ(config.tiers[0].fan_in, 4u);
  EXPECT_EQ(config.tiers[0].capacity, DataSize::gigabytes(120));
  EXPECT_DOUBLE_EQ(config.tiers[0].uplink.gbps(), 0.5);
  EXPECT_DOUBLE_EQ(config.tiers[0].cost_per_gb, 0.02);
  ASSERT_EQ(config.tiers[0].outages.size(), 1u);
  EXPECT_EQ(config.tiers[0].outages[0].start, sim::SimTime::hours(60));
  EXPECT_EQ(config.tiers[0].outages[0].duration, sim::SimTime::hours(6));
  EXPECT_EQ(config.prefetch.kind, core::PrefetchKind::Oracle);
  EXPECT_EQ(config.prefetch.refresh, sim::SimTime::hours(12));
  EXPECT_DOUBLE_EQ(config.origin_cost_per_gb, 0.07);
}

TEST(ScenarioTiers, PresenceEnablesWithDefaults) {
  const auto config = parse_text("[tiers]\n").system;
  ASSERT_EQ(config.tiers.size(), 1u);
  EXPECT_EQ(config.tiers[0].fan_in, 8u);
  EXPECT_EQ(config.prefetch.kind, core::PrefetchKind::TopPopular);
  // Absent section leaves the two-level world alone.
  EXPECT_TRUE(parse_text("[workload]\ndays = 2\n").system.tiers.empty());
}

TEST(ScenarioTiers, UnknownPrefetchIsALineNumberedParseError) {
  expect_parse_error("[tiers]\nprefetch = psychic\n",
                     {"line 2", "psychic", "top-popular"});
}

TEST(ScenarioTiers, OutOfRangeCapacityIsALineNumberedParseError) {
  expect_parse_error("[tiers]\nhub_capacity_gb = -3\n",
                     {"line 2", "hub_capacity_gb"});
  expect_parse_error("[tiers]\nhub_capacity_gb = 99999999999999\n",
                     {"line 2", "hub_capacity_gb"});
}

TEST(ScenarioTiers, UnknownKeyListsTheSectionVocabulary) {
  expect_parse_error("[tiers]\nhub_size = 10\n",
                     {"line 2", "hub_size", "hub_capacity_gb"});
}

TEST(ScenarioTiers, CapacityFanInOverflowIsANamedValidateError) {
  // 1e9 GB x 4e9 overflows the byte range; each key alone is in bounds.
  expect_parse_error("[tiers]\nhub_capacity_gb = 1000000000\n"
                     "hub_fan_in = 4000000000\n",
                     {"line 3", "hub_capacity_gb x hub_fan_in"});
}

TEST(ScenarioTiers, OutageNeedsBothKeys) {
  expect_parse_error("[workload]\ndays = 4\n[tiers]\noutage_start_hour = 10\n",
                     {"line 4", "outage needs both"});
  expect_parse_error("[workload]\ndays = 4\n[tiers]\noutage_hours = 10\n",
                     {"line 4", "outage needs both"});
}

TEST(ScenarioTiers, OutagePastHorizonRejected) {
  expect_parse_error("[workload]\ndays = 2\n"
                     "[tiers]\noutage_start_hour = 49\noutage_hours = 2\n",
                     {"line 5", "outage starts past"});
}

// ---------------------------------------------------------------------------
// Shipped scenario files: the acceptance pin
// ---------------------------------------------------------------------------

std::vector<std::string> shipped_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(VODCACHE_SCENARIO_DIR)) {
    if (entry.path().extension() == ".scn") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(ShippedScenarios, AtLeastFiveFilesAndAllParse) {
  const auto files = shipped_files();
  EXPECT_GE(files.size(), 5u);
  for (const auto& file : files) {
    const auto spec = load_scenario_file(file).scenario;
    EXPECT_FALSE(spec.name.empty());
    EXPECT_FALSE(spec.summary.empty()) << file << " needs a summary";
  }
}

// Every shipped file, replayed streamed at 1/2/8 threads and once off the
// materialized trace: all four reports must be byte-identical.  This is
// the scenario engine's determinism contract end to end.
class ShippedScenarioIdentity
    : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    Files, ShippedScenarioIdentity, ::testing::ValuesIn(shipped_files()),
    [](const auto& info) {
      auto name = std::filesystem::path(info.param).stem().string();
      std::replace_if(
          name.begin(), name.end(),
          [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); },
          '_');
      return name;
    });

TEST_P(ShippedScenarioIdentity, BitIdenticalAcrossThreadsAndMaterialization) {
  RunConfig base;
  base.system.strategy.kind = core::StrategyKind::Lfu;
  const auto loaded = load_scenario_file(GetParam(), base);
  const auto& config = loaded.system;
  const ScenarioWorkload workload(loaded.scenario, config.neighborhood_size);

  const auto repro = [&](const core::SystemConfig& run) {
    return test::repro_line(loaded.scenario.workload, run) +
           " scenario=" + GetParam();
  };
  std::string reference;
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    auto run = config;
    run.threads = threads;
    core::VodSystem system(workload.source(), run);
    const auto json = core::to_json(system.run(), true);
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << repro(run);
    }
  }

  const auto trace = trace::materialize(workload.source());
  core::VodSystem materialized(trace, config);
  EXPECT_EQ(core::to_json(materialized.run(), true), reference)
      << "materialized twin diverged; " << repro(config);
}

}  // namespace
}  // namespace vodcache::scenario
