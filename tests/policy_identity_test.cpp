// Policy-engine migration pins: the full serialized report (every
// neighborhood, every floating-point field) of each pre-existing strategy is
// hashed and pinned here.  The admission x eviction decomposition was
// required to be *invisible* for these configurations — the composable
// engine with the default always-admit policy must reproduce the monolithic
// ReplacementStrategy's reports byte for byte.
//
// If a change intentionally alters simulation semantics, regenerate the
// constants: run this test, copy the "actual" values from the failure
// output, and say why in the commit message.  A hash mismatch you did not
// expect means the refactor changed behaviour — do not regenerate, debug.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/report_json.hpp"
#include "core/vod_system.hpp"
#include "test_support.hpp"
#include "trace/generator.hpp"

namespace vodcache::core {
namespace {

// FNV-1a 64-bit: stable across platforms and standard libraries, unlike
// std::hash.  Collisions are irrelevant here — the input is one fixed
// string per configuration.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

const trace::Trace& pinned_trace() {
  static const trace::Trace trace = [] {
    auto workload = test::small_workload(3, 777);
    workload.user_count = 300;
    workload.program_count = 80;
    workload.sessions_per_user_per_day = 6.0;
    return trace::generate_power_info_like(workload);
  }();
  return trace;
}

SystemConfig pinned_config(StrategyKind kind) {
  SystemConfig config;
  config.neighborhood_size = 40;  // 300 users -> 8 neighborhoods
  config.per_peer_storage = DataSize::megabytes(400);
  config.strategy.kind = kind;
  config.strategy.lfu_history = sim::SimTime::hours(24);
  config.warmup = sim::SimTime::days(1);
  return config;
}

std::uint64_t report_hash(const SystemConfig& config) {
  VodSystem system(pinned_trace(), config);
  return fnv1a(to_json(system.run(), /*include_neighborhoods=*/true));
}

struct GoldenCase {
  const char* name;
  StrategyKind kind;
  std::int64_t lag_minutes;
  CacheAdmission admission;
  bool failures;
  std::uint64_t golden;
};

// Hashes generated at the last commit before the policy-engine
// decomposition (PR 3 head), with the monolithic ReplacementStrategy.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

const GoldenCase kGoldenCases[] = {
    {"None", StrategyKind::None, 0, CacheAdmission::WholeProgram, false,
     0x920B3F4F8AD09931ULL},
    {"Lru", StrategyKind::Lru, 0, CacheAdmission::WholeProgram, false,
     0xF04C114BD5D8CC55ULL},
    {"Lfu", StrategyKind::Lfu, 0, CacheAdmission::WholeProgram, false,
     0x7BE417FF7EFB9446ULL},
    {"Oracle", StrategyKind::Oracle, 0, CacheAdmission::WholeProgram, false,
     0x498A9A30436FE676ULL},
    {"GlobalLfu", StrategyKind::GlobalLfu, 0, CacheAdmission::WholeProgram,
     false, 0x2D33D495C04E303BULL},
    {"GlobalLfuLagged", StrategyKind::GlobalLfu, 30,
     CacheAdmission::WholeProgram, false, 0x7C992930F58FB89DULL},
    {"LfuSegmentAdmission", StrategyKind::Lfu, 0, CacheAdmission::Segment,
     false, 0xE8C7D60E3BE8F546ULL},
    {"LfuFailureWaves", StrategyKind::Lfu, 0, CacheAdmission::WholeProgram,
     true, 0x51F09B8D6822F619ULL},
};

class PreRefactorIdentity : public ::testing::TestWithParam<GoldenCase> {};

INSTANTIATE_TEST_SUITE_P(Strategies, PreRefactorIdentity,
                         ::testing::ValuesIn(kGoldenCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST_P(PreRefactorIdentity, ReportBytesMatchMonolithicStrategy) {
  const auto& c = GetParam();
  auto config = pinned_config(c.kind);
  config.strategy.global_lag = sim::SimTime::minutes(c.lag_minutes);
  config.admission = c.admission;
  if (c.failures) {
    config.peer_failures.push_back({sim::SimTime::hours(20), 0.4, 11});
    config.peer_failures.push_back({sim::SimTime::hours(50), 0.3, 12});
  }
  EXPECT_EQ(report_hash(config), c.golden)
      << "actual hash 0x" << std::hex << report_hash(config);
}

// GlobalLFU pins beyond always-admit: the board's live and lagged counts
// under the second-hit and sketch-lfu gates, and the live counts under
// segment-granularity admission.  Recorded while every shard still walked
// the whole board to keep its counts; same regeneration rule as above.
struct GlobalLfuGoldenCase {
  const char* name;
  std::int64_t lag_minutes;
  AdmissionKind gate;
  CacheAdmission admission;
  std::uint64_t golden;
};

void PrintTo(const GlobalLfuGoldenCase& c, std::ostream* os) { *os << c.name; }

const GlobalLfuGoldenCase kGlobalLfuGoldenCases[] = {
    {"Lag0SecondHit", 0, AdmissionKind::SecondHit,
     CacheAdmission::WholeProgram, 0x89B5EE7484246DA1ULL},
    {"Lag30SecondHit", 30, AdmissionKind::SecondHit,
     CacheAdmission::WholeProgram, 0x2C0C415A350D4DACULL},
    {"Lag120SecondHit", 120, AdmissionKind::SecondHit,
     CacheAdmission::WholeProgram, 0x6C1EBB4475A26CF0ULL},
    {"Lag0SketchLfu", 0, AdmissionKind::SketchLfu,
     CacheAdmission::WholeProgram, 0xDADF49DCB6A41577ULL},
    {"Lag30SketchLfu", 30, AdmissionKind::SketchLfu,
     CacheAdmission::WholeProgram, 0x4827C4AFC0207FCBULL},
    {"Lag120SketchLfu", 120, AdmissionKind::SketchLfu,
     CacheAdmission::WholeProgram, 0x0877C9122FCB6BD9ULL},
    {"Lag0Segment", 0, AdmissionKind::Always, CacheAdmission::Segment,
     0x2BB10B77D5828F8BULL},
};

class GlobalLfuIdentity
    : public ::testing::TestWithParam<GlobalLfuGoldenCase> {};

INSTANTIATE_TEST_SUITE_P(LagsAndGates, GlobalLfuIdentity,
                         ::testing::ValuesIn(kGlobalLfuGoldenCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST_P(GlobalLfuIdentity, ReportBytesArePinned) {
  const auto& c = GetParam();
  auto config = pinned_config(StrategyKind::GlobalLfu);
  config.strategy.global_lag = sim::SimTime::minutes(c.lag_minutes);
  config.admission_policy.kind = c.gate;
  config.admission = c.admission;
  EXPECT_EQ(report_hash(config), c.golden)
      << "actual hash 0x" << std::hex << std::uppercase << report_hash(config);
}

// Tiered-report pins: same trace and base config as above, plus a fan-in-2
// hub level — the tiered walk, prefetch planning, and per-tier breakdown
// are pinned from the commit that introduced them.  The two-level cases
// above must stay untouched forever; these follow the same regeneration
// rule (intentional semantics changes only, explained in the commit).
struct TieredGoldenCase {
  const char* name;
  PrefetchKind prefetch;
  double link_gbps;
  bool outage;
  std::uint64_t golden;
};

// Without this, gtest lists the parameter as its raw bytes, and the first
// eight are the address of `name`, which moves with every run under ASLR:
// the listed test name would differ from one build to the next.
void PrintTo(const TieredGoldenCase& c, std::ostream* os) { *os << c.name; }

const TieredGoldenCase kTieredGoldenCases[] = {
    {"TopPopular", PrefetchKind::TopPopular, 0.0, false,
     0xB5F144F22C847EC8ULL},
    // 1 Mb/s x 12 h is about half the hub's capacity per rotation, so the
    // uplink budget genuinely constrains this plan.
    {"TopPopularCapped", PrefetchKind::TopPopular, 0.001, false,
     0xE2AFBDF9371756DDULL},
    {"OracleOutage", PrefetchKind::Oracle, 0.0, true,
     0x2BC6BE7454C82664ULL},
    {"NonePrefetch", PrefetchKind::None, 0.0, false,
     0x8CC0A9F217D1DC92ULL},
};

class TieredIdentity : public ::testing::TestWithParam<TieredGoldenCase> {};

INSTANTIATE_TEST_SUITE_P(Prefetches, TieredIdentity,
                         ::testing::ValuesIn(kTieredGoldenCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST_P(TieredIdentity, TieredReportBytesArePinned) {
  const auto& c = GetParam();
  auto config = pinned_config(StrategyKind::Lfu);
  hfc::TierLevelSpec hub;
  hub.fan_in = 2;  // 8 neighborhoods -> 4 hub nodes
  hub.capacity = DataSize::gigabytes(10);
  hub.uplink = DataRate::gigabits_per_second(c.link_gbps);
  if (c.outage) {
    hub.outages.push_back({sim::SimTime::hours(30), sim::SimTime::hours(6)});
  }
  config.tiers.push_back(hub);
  config.prefetch.kind = c.prefetch;
  config.prefetch.refresh = sim::SimTime::hours(12);
  EXPECT_EQ(report_hash(config), c.golden)
      << "actual hash 0x" << std::hex << report_hash(config);
}

// The no-cache baseline under everything that touches a neighborhood
// without a cache: two failure waves and a hub tier whose misses walk up
// before the origin serves them.  Same regeneration rule as above.
TEST(NoCacheIdentity, FailureWavesAndHubTierArePinned) {
  auto config = pinned_config(StrategyKind::None);
  config.peer_failures.push_back({sim::SimTime::hours(20), 0.4, 11});
  config.peer_failures.push_back({sim::SimTime::hours(50), 0.3, 12});
  hfc::TierLevelSpec hub;
  hub.fan_in = 2;
  hub.capacity = DataSize::gigabytes(10);
  config.tiers.push_back(hub);
  config.prefetch.kind = PrefetchKind::TopPopular;
  config.prefetch.refresh = sim::SimTime::hours(12);
  EXPECT_EQ(report_hash(config), 0x9E7A74DADEF7E234ULL)
      << "actual hash 0x" << std::hex << std::uppercase << report_hash(config);
}

}  // namespace
}  // namespace vodcache::core
