// Cross-validation: core::VodSystem vs the independent naive reference
// implementation, over randomized workloads and configurations.  Counters
// and byte totals must match exactly — any divergence indicates a bug in
// one of the production engine's data structures or in the reference's
// reading of the semantics; either way, a bug.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/vod_system.hpp"
#include "reference_sim.hpp"
#include "test_support.hpp"
#include "trace/generator.hpp"

namespace vodcache::core {
namespace {

struct Case {
  std::uint64_t seed;
  StrategyKind kind;
  std::uint32_t neighborhood;
  std::int64_t per_peer_mb;
  // A 0/1 flag held in 32 bits rather than a bool, so the struct has no
  // padding: gtest lists a parameter without a printer as its raw bytes,
  // and padding bytes are never initialized, which made those names
  // differ from one build to the next.
  std::uint32_t replicate;
  // GlobalLFU's batch lag; 0 is the live board.
  std::int32_t lag_minutes = 0;
};
static_assert(sizeof(Case) == 32, "Case must have no padding bytes");

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return std::string(to_string(info.param.kind)) + "_s" +
         std::to_string(info.param.seed) + "_n" +
         std::to_string(info.param.neighborhood) + "_mb" +
         std::to_string(info.param.per_peer_mb) +
         (info.param.replicate ? "_rep" : "") +
         (info.param.lag_minutes > 0
              ? "_lag" + std::to_string(info.param.lag_minutes)
              : "");
}

class CrossValidation : public ::testing::TestWithParam<Case> {};

// Replays `param` through the engine and the naive reference, expects
// every counter to agree, and returns the reference's result.
test::ReferenceResult cross_validate(const Case& param) {
  SCOPED_TRACE("repro: seed=" + std::to_string(param.seed) + " kind=" +
               to_string(param.kind) + " neighborhood=" +
               std::to_string(param.neighborhood) + " per_peer_mb=" +
               std::to_string(param.per_peer_mb) + " replicate=" +
               std::to_string(param.replicate) + " lag_minutes=" +
               std::to_string(param.lag_minutes));

  auto workload = test::small_workload(3, param.seed);
  workload.user_count = 300;
  workload.program_count = 80;
  workload.sessions_per_user_per_day = 6.0;
  const auto trace = trace::generate_power_info_like(workload);

  SystemConfig config;
  config.neighborhood_size = param.neighborhood;
  config.per_peer_storage = DataSize::megabytes(param.per_peer_mb);
  config.strategy.kind = param.kind;
  config.strategy.lfu_history = sim::SimTime::hours(24);
  config.strategy.global_lag = sim::SimTime::minutes(param.lag_minutes);
  config.replicate_on_busy = param.replicate != 0;
  config.warmup = sim::SimTime{};

  VodSystem system(trace, config);
  const auto report = system.run();
  auto reference = test::reference_simulate(trace, config);

  EXPECT_EQ(report.hits, reference.hits);
  EXPECT_EQ(report.cold_misses, reference.cold_misses);
  EXPECT_EQ(report.busy_misses, reference.busy_misses);
  EXPECT_EQ(report.evictions, reference.evictions);
  EXPECT_EQ(report.fills, reference.fills);
  EXPECT_NEAR(report.server_bits, reference.server_bits,
              1.0 + report.server_bits * 1e-12);
  EXPECT_NEAR(report.coax_bits, reference.coax_bits,
              1.0 + report.coax_bits * 1e-12);
  return reference;
}

TEST_P(CrossValidation, MatchesReferenceExactly) {
  (void)cross_validate(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, CrossValidation,
    ::testing::Values(
        // Strategy sweep at a mid-size contended configuration.
        Case{1, StrategyKind::None, 60, 500, false},
        Case{1, StrategyKind::Lru, 60, 500, false},
        Case{1, StrategyKind::Lfu, 60, 500, false},
        // Seed sweep for LFU (the most intricate bookkeeping).
        Case{2, StrategyKind::Lfu, 60, 500, false},
        Case{3, StrategyKind::Lfu, 60, 500, false},
        Case{4, StrategyKind::Lfu, 60, 500, false},
        // Tiny neighborhoods: heavy stream contention, busy misses.
        Case{5, StrategyKind::Lru, 10, 800, false},
        Case{5, StrategyKind::Lfu, 10, 800, false},
        // No segment fits: a 300 s segment at the 8.06 Mb/s stream rate is
        // about 302 MB, above the 250 MB a peer offers, so nothing is ever
        // filled or hit and only commit-time evictions (whole-program
        // admission charging a program before its first segment) are
        // compared.  TightStorage below churns a store that segments fit.
        Case{6, StrategyKind::Lru, 40, 250, false},
        Case{6, StrategyKind::Lfu, 40, 250, false},
        // Replication extension on.
        Case{7, StrategyKind::Lru, 30, 600, true},
        Case{7, StrategyKind::Lfu, 30, 600, true},
        // Larger caches: little eviction, lots of hits.
        Case{8, StrategyKind::Lru, 100, 4000, false},
        Case{8, StrategyKind::Lfu, 100, 4000, true},
        // GlobalLFU, live: every neighborhood's accesses count at once.
        Case{1, StrategyKind::GlobalLfu, 60, 500, false},
        Case{2, StrategyKind::GlobalLfu, 60, 500, false},
        Case{5, StrategyKind::GlobalLfu, 10, 800, false},
        Case{6, StrategyKind::GlobalLfu, 40, 250, false},
        Case{7, StrategyKind::GlobalLfu, 30, 600, true},
        // GlobalLFU, lagged: batch snapshots plus the local accesses since.
        Case{1, StrategyKind::GlobalLfu, 60, 500, false, 30},
        Case{6, StrategyKind::GlobalLfu, 40, 250, false, 30},
        Case{7, StrategyKind::GlobalLfu, 30, 600, true, 120}),
    case_name);

// Tight storage: 400 MB holds one segment per peer, so fills evict all the
// time.  Twins of the 250 MB cases above, which no segment fits; the
// reference must show the churn these cases exist for.
class TightStorage : public ::testing::TestWithParam<Case> {};

TEST_P(TightStorage, MatchesReferenceWithFillsAndEvictions) {
  const auto reference = cross_validate(GetParam());
  EXPECT_GT(reference.fills, 0u);
  EXPECT_GT(reference.evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, TightStorage,
    ::testing::Values(Case{6, StrategyKind::Lru, 40, 400, false},
                      Case{6, StrategyKind::Lfu, 40, 400, false},
                      Case{6, StrategyKind::GlobalLfu, 40, 400, false},
                      Case{6, StrategyKind::GlobalLfu, 40, 400, false, 30}),
    case_name);

// Tie-heavy workloads: every start and duration snapped to a 60 s grid, so
// segment boundaries fall on the same instants as each other and as session
// starts, and transmissions end exactly when others begin.  In 10-peer
// neighborhoods the peers' stream limits are contended, so the order in
// which simultaneous events run decides hit versus busy miss.  The
// reference's queue is a (time, push order) multimap run boundaries-first;
// the engine must match it at every demux chunk and thread count.
struct TieCase {
  std::uint64_t seed;
  StrategyKind kind;
  std::int64_t chunk_minutes;
  std::uint32_t threads;
};

void PrintTo(const TieCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " kind=" << to_string(c.kind)
      << " chunk_minutes=" << c.chunk_minutes << " threads=" << c.threads;
}

std::string tie_case_name(const ::testing::TestParamInfo<TieCase>& info) {
  const auto& c = info.param;
  return std::string(to_string(c.kind)) + "_s" + std::to_string(c.seed) +
         "_chunk" + std::to_string(c.chunk_minutes) + "m_t" +
         std::to_string(c.threads);
}

// `trace` with every start rounded up and every duration of a minute or
// more rounded down to whole minutes; rounding up keeps a start at or after
// its program's introduction, and a start pushed to the horizon is dropped.
trace::Trace snap_to_minutes(const trace::Trace& trace) {
  constexpr std::int64_t kMinuteMs = 60'000;
  std::vector<trace::SessionRecord> sessions;
  sessions.reserve(trace.session_count());
  for (auto record : trace.sessions()) {
    const std::int64_t start_ms = record.start.millis_count();
    record.start = sim::SimTime::millis((start_ms + kMinuteMs - 1) /
                                        kMinuteMs * kMinuteMs);
    if (record.start >= trace.horizon()) continue;
    const std::int64_t duration_ms = record.duration.millis_count();
    if (duration_ms >= kMinuteMs) {
      record.duration =
          sim::SimTime::millis(duration_ms / kMinuteMs * kMinuteMs);
    }
    sessions.push_back(record);
  }
  trace::Trace snapped(trace.catalog(), std::move(sessions),
                       trace.user_count(), trace.horizon());
  snapped.validate();
  return snapped;
}

class TieHeavyCrossValidation : public ::testing::TestWithParam<TieCase> {};

TEST_P(TieHeavyCrossValidation, MatchesReferenceExactly) {
  const auto& param = GetParam();
  SCOPED_TRACE("repro: seed=" + std::to_string(param.seed) + " kind=" +
               to_string(param.kind) + " neighborhood=10 per_peer_mb=800" +
               " grid_s=60 chunk_minutes=" +
               std::to_string(param.chunk_minutes) +
               " threads=" + std::to_string(param.threads));

  auto workload = test::small_workload(3, param.seed);
  workload.user_count = 300;
  workload.program_count = 80;
  workload.sessions_per_user_per_day = 8.0;
  const auto trace =
      snap_to_minutes(trace::generate_power_info_like(workload));

  SystemConfig config;
  config.neighborhood_size = 10;
  config.per_peer_storage = DataSize::megabytes(800);
  config.strategy.kind = param.kind;
  config.strategy.lfu_history = sim::SimTime::hours(24);
  config.warmup = sim::SimTime{};
  config.threads = param.threads;
  config.stream_chunk = sim::SimTime::minutes(param.chunk_minutes);

  VodSystem system(trace, config);
  const auto report = system.run();
  const auto reference = test::reference_simulate(trace, config);

  EXPECT_GT(reference.busy_misses, 0u);
  EXPECT_EQ(report.hits, reference.hits);
  EXPECT_EQ(report.cold_misses, reference.cold_misses);
  EXPECT_EQ(report.busy_misses, reference.busy_misses);
  EXPECT_EQ(report.evictions, reference.evictions);
  EXPECT_EQ(report.fills, reference.fills);
  EXPECT_NEAR(report.server_bits, reference.server_bits,
              1.0 + report.server_bits * 1e-12);
  EXPECT_NEAR(report.coax_bits, reference.coax_bits,
              1.0 + report.coax_bits * 1e-12);
}

std::vector<TieCase> tie_cases() {
  std::vector<TieCase> cases;
  std::uint64_t seed = 11;
  for (const auto kind :
       {StrategyKind::Lru, StrategyKind::Lfu, StrategyKind::GlobalLfu}) {
    for (const std::int64_t chunk_minutes : {5, 7, 60}) {
      for (const std::uint32_t threads : {1u, 4u}) {
        cases.push_back({seed, kind, chunk_minutes, threads});
      }
    }
    ++seed;
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SnappedWorkloads, TieHeavyCrossValidation,
                         ::testing::ValuesIn(tie_cases()), tie_case_name);

// Admission gates and GreedyDual, whole-program admission.  A separate
// suite, so the cases above keep their names.
struct PolicyCase {
  std::uint64_t seed;
  StrategyKind kind;
  AdmissionKind admission;
  std::uint32_t neighborhood;
  std::int64_t per_peer_mb;
  bool replicate;
};

// gtest prints a parameter without a printer as raw bytes, padding
// included; this keeps each case's listed name readable and stable.
void PrintTo(const PolicyCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " kind=" << to_string(c.kind)
      << " admission=" << to_string(c.admission)
      << " neighborhood=" << c.neighborhood
      << " per_peer_mb=" << c.per_peer_mb << " replicate=" << c.replicate;
}

std::string admission_tag(AdmissionKind kind) {
  switch (kind) {
    case AdmissionKind::SecondHit:
      return "secondhit";
    case AdmissionKind::SketchLfu:
      return "sketch";
    default:
      return "always";
  }
}

std::string policy_case_name(
    const ::testing::TestParamInfo<PolicyCase>& info) {
  const auto& c = info.param;
  return std::string(to_string(c.kind)) + "_" + admission_tag(c.admission) +
         "_s" + std::to_string(c.seed) + "_n" +
         std::to_string(c.neighborhood) + "_mb" +
         std::to_string(c.per_peer_mb) + (c.replicate ? "_rep" : "");
}

class PolicyCrossValidation : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(PolicyCrossValidation, MatchesReferenceExactly) {
  const auto& param = GetParam();
  SCOPED_TRACE("repro: seed=" + std::to_string(param.seed) + " kind=" +
               to_string(param.kind) + " admission=" +
               to_string(param.admission) + " neighborhood=" +
               std::to_string(param.neighborhood) + " per_peer_mb=" +
               std::to_string(param.per_peer_mb) + " replicate=" +
               (param.replicate ? "1" : "0"));

  auto workload = test::small_workload(3, param.seed);
  workload.user_count = 300;
  workload.program_count = 80;
  workload.sessions_per_user_per_day = 6.0;
  const auto trace = trace::generate_power_info_like(workload);

  SystemConfig config;
  config.neighborhood_size = param.neighborhood;
  config.per_peer_storage = DataSize::megabytes(param.per_peer_mb);
  config.strategy.kind = param.kind;
  config.strategy.lfu_history = sim::SimTime::hours(24);
  config.admission_policy.kind = param.admission;
  // Short enough that stale first accesses are refused.
  config.admission_policy.probation_window = sim::SimTime::hours(6);
  config.replicate_on_busy = param.replicate;
  config.warmup = sim::SimTime{};

  VodSystem system(trace, config);
  const auto report = system.run();
  const auto reference = test::reference_simulate(trace, config);

  EXPECT_EQ(report.hits, reference.hits);
  EXPECT_EQ(report.cold_misses, reference.cold_misses);
  EXPECT_EQ(report.busy_misses, reference.busy_misses);
  EXPECT_EQ(report.evictions, reference.evictions);
  EXPECT_EQ(report.fills, reference.fills);
  EXPECT_EQ(report.admission_denials, reference.admission_denials);
  EXPECT_NEAR(report.server_bits, reference.server_bits,
              1.0 + report.server_bits * 1e-12);
  EXPECT_NEAR(report.coax_bits, reference.coax_bits,
              1.0 + report.coax_bits * 1e-12);
}

constexpr auto kSecondHit = AdmissionKind::SecondHit;
constexpr auto kSketch = AdmissionKind::SketchLfu;
constexpr auto kAlways = AdmissionKind::Always;

INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, PolicyCrossValidation,
    ::testing::Values(
        // Both gates under LRU and LFU, three seeds each.
        PolicyCase{1, StrategyKind::Lru, kSecondHit, 60, 500, false},
        PolicyCase{5, StrategyKind::Lru, kSecondHit, 10, 800, false},
        PolicyCase{7, StrategyKind::Lru, kSecondHit, 30, 600, true},
        PolicyCase{1, StrategyKind::Lfu, kSecondHit, 60, 500, false},
        PolicyCase{6, StrategyKind::Lfu, kSecondHit, 40, 400, false},
        PolicyCase{7, StrategyKind::Lfu, kSecondHit, 30, 600, true},
        PolicyCase{1, StrategyKind::Lru, kSketch, 60, 500, false},
        PolicyCase{6, StrategyKind::Lru, kSketch, 40, 400, false},
        PolicyCase{7, StrategyKind::Lru, kSketch, 30, 600, true},
        PolicyCase{2, StrategyKind::Lfu, kSketch, 60, 500, false},
        PolicyCase{5, StrategyKind::Lfu, kSketch, 10, 800, false},
        PolicyCase{7, StrategyKind::Lfu, kSketch, 30, 600, true},
        // GreedyDual: inflation, frozen resident H, lifetime counts.
        PolicyCase{1, StrategyKind::GreedyDual, kAlways, 60, 500, false},
        PolicyCase{6, StrategyKind::GreedyDual, kAlways, 40, 400, false},
        PolicyCase{7, StrategyKind::GreedyDual, kAlways, 30, 600, true},
        PolicyCase{2, StrategyKind::GreedyDual, kSecondHit, 60, 500, false},
        PolicyCase{5, StrategyKind::GreedyDual, kSketch, 10, 800, false}),
    policy_case_name);

}  // namespace
}  // namespace vodcache::core
