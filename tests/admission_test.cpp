// Admission half of the policy engine: unit semantics of each policy, the
// index server's gating (a refusal must leave the cached set untouched),
// and a system-level check that the coax-headroom gate actually changes
// outcomes — the scenario the monolithic strategy could not express.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>

#include "alloc_probe.hpp"
#include "cache/admission.hpp"
#include "cache/lru.hpp"
#include "core/index_server.hpp"
#include "core/report_json.hpp"
#include "core/vod_system.hpp"
#include "test_support.hpp"
#include "trace/generator.hpp"

VODCACHE_DEFINE_ALLOC_PROBE();

namespace vodcache::core {
namespace {

using test::make_trace;
using test::uniform_catalog;

sim::SimTime at_hours(std::int64_t h) { return sim::SimTime::hours(h); }

cache::AdmissionRequest request(std::uint32_t program, sim::SimTime t,
                                DataRate coax = DataRate{}) {
  return {ProgramId{program}, t, coax};
}

// ------------------------------------------------------------ second-hit

TEST(SecondHitPolicy, FirstAccessNeverAdmits) {
  cache::AccessHistory history;
  cache::SecondHitPolicy policy(history, sim::SimTime::hours(24));
  history.record(ProgramId{7}, at_hours(1));
  EXPECT_FALSE(policy.admit(request(7, at_hours(1))));
}

TEST(SecondHitPolicy, SecondAccessWithinWindowAdmits) {
  cache::AccessHistory history;
  cache::SecondHitPolicy policy(history, sim::SimTime::hours(24));
  history.record(ProgramId{7}, at_hours(1));
  history.record(ProgramId{7}, at_hours(10));
  EXPECT_TRUE(policy.admit(request(7, at_hours(10))));
}

TEST(SecondHitPolicy, StaleFirstAccessDoesNotAdmit) {
  cache::AccessHistory history;
  cache::SecondHitPolicy policy(history, sim::SimTime::hours(24));
  history.record(ProgramId{7}, at_hours(1));
  history.record(ProgramId{7}, at_hours(30));  // 29 h later: stale
  EXPECT_FALSE(policy.admit(request(7, at_hours(30))));
  // But the probation clock restarted: a third access within the window of
  // the second admits.
  history.record(ProgramId{7}, at_hours(40));
  EXPECT_TRUE(policy.admit(request(7, at_hours(40))));
}

TEST(SecondHitPolicy, ProgramsAreIndependent) {
  cache::AccessHistory history;
  cache::SecondHitPolicy policy(history, sim::SimTime::hours(24));
  history.record(ProgramId{1}, at_hours(1));
  history.record(ProgramId{1}, at_hours(2));
  history.record(ProgramId{2}, at_hours(2));
  EXPECT_TRUE(policy.admit(request(1, at_hours(2))));
  EXPECT_FALSE(policy.admit(request(2, at_hours(2))));
}

TEST(SecondHitPolicy, AccessAtTimeZeroCounts) {
  // A first access at t=0 must not be mistaken for "never accessed".
  cache::AccessHistory history;
  cache::SecondHitPolicy policy(history, sim::SimTime::hours(24));
  history.record(ProgramId{3}, sim::SimTime{});
  history.record(ProgramId{3}, at_hours(1));
  EXPECT_TRUE(policy.admit(request(3, at_hours(1))));
}

TEST(SecondHitPolicy, AgingBoundsHistoryOnChurningCatalogs) {
  // Regression: history_ used to keep one entry per program ever seen —
  // unbounded growth on a churning catalog.  With aging, entries whose
  // last access fell out of 2x the probation window are swept, so the
  // live table tracks only the recent access set.
  cache::AccessHistory history;
  cache::SecondHitPolicy policy(history, sim::SimTime::hours(1));
  std::size_t high_water = 0;
  for (std::int64_t hour = 0; hour < 500; ++hour) {
    for (std::uint32_t k = 0; k < 4; ++k) {
      history.record(ProgramId{static_cast<std::uint32_t>(hour) * 4 + k},
                           at_hours(hour));
    }
    high_water = std::max(high_water, history.probation_size());
  }
  // 2000 distinct programs seen; only the last ~3 hours' worth (sweep
  // cadence one window, cutoff two windows) may be live at once.
  EXPECT_LE(high_water, 16u);

  // Aging is decision-invariant: a swept program re-accessed later is
  // refused exactly as a kept-but-stale entry would be, and its probation
  // clock restarts the same way.
  history.record(ProgramId{0}, at_hours(600));
  EXPECT_FALSE(policy.admit(request(0, at_hours(600))));
  history.record(ProgramId{0}, at_hours(600));
  EXPECT_TRUE(policy.admit(request(0, at_hours(600))));
}

TEST(SecondHitPolicy, SteadyStateIsAllocationFree) {
  // With aging bounding the live set, the flat table and the sweep's
  // scratch vector reach a high-water capacity and stay there: after a
  // warm phase, driving the same churn pattern must allocate nothing.
  cache::AccessHistory history;
  cache::SecondHitPolicy policy(history, sim::SimTime::hours(1));
  auto drive = [&](std::int64_t from_hour, std::int64_t hours) {
    for (std::int64_t hour = from_hour; hour < from_hour + hours; ++hour) {
      for (std::uint32_t k = 0; k < 4; ++k) {
        const auto id = static_cast<std::uint32_t>(hour) * 4 + k;
        history.record(ProgramId{id}, at_hours(hour));
        (void)policy.admit(request(id, at_hours(hour)));
      }
    }
  };
  drive(0, 100);  // warm: table + scratch reach capacity
  const std::uint64_t before = test::alloc_count();
  drive(100, 400);
  EXPECT_EQ(test::alloc_count() - before, 0u);
}

// --------------------------------------------------------- coax-headroom

TEST(CoaxHeadroomPolicy, AdmitsBelowAndRefusesAtThreshold) {
  hfc::CoaxSpec spec;  // available_low = 4.9 - 3.3 = 1.6 Gb/s
  cache::CoaxHeadroomPolicy policy(spec, 0.5);  // threshold 0.8 Gb/s
  EXPECT_TRUE(policy.admit(
      request(0, at_hours(1), DataRate::megabits_per_second(700))));
  EXPECT_FALSE(policy.admit(
      request(0, at_hours(1), DataRate::megabits_per_second(800))));
  EXPECT_FALSE(policy.admit(
      request(0, at_hours(1), DataRate::gigabits_per_second(1.2))));
}

TEST(CoaxSpec, VodHeadroomQuery) {
  hfc::CoaxSpec spec;
  EXPECT_TRUE(spec.vod_headroom(DataRate::gigabits_per_second(1.0), 1.0));
  EXPECT_FALSE(spec.vod_headroom(DataRate::gigabits_per_second(1.6), 1.0));
  EXPECT_FALSE(spec.vod_headroom(DataRate::gigabits_per_second(0.2), 0.1));
}

// ------------------------------------------------------------ sketch-lfu

TEST(SketchLFUPolicy, AdmitsOnceEstimateReachesThreshold) {
  cache::AccessHistory history;
  cache::SketchLFUPolicy policy(history, 1024, 4, 1ull << 40, 3);
  history.record(ProgramId{7}, at_hours(1));
  EXPECT_FALSE(policy.admit(request(7, at_hours(1))));
  history.record(ProgramId{7}, at_hours(2));
  EXPECT_FALSE(policy.admit(request(7, at_hours(2))));
  history.record(ProgramId{7}, at_hours(3));
  EXPECT_TRUE(policy.admit(request(7, at_hours(3))));
  // An untouched program stays refused whatever program 7 accumulated.
  EXPECT_FALSE(policy.admit(request(8, at_hours(3))));
}

TEST(SketchLFUPolicy, HalvingRevokesDecayedCredit) {
  // Period 8: the 4 accesses of program 1 decay to 0 across the halvings
  // driven by the sustained traffic for program 2 — re-probation through
  // geometric aging, where second-hit would have admitted program 1 on any
  // two close accesses.
  cache::AccessHistory history;
  cache::SketchLFUPolicy policy(history, 1024, 4, 8, 2);
  for (int i = 0; i < 4; ++i) history.record(ProgramId{1}, at_hours(1));
  EXPECT_TRUE(policy.admit(request(1, at_hours(1))));
  for (int i = 0; i < 64; ++i) history.record(ProgramId{2}, at_hours(2));
  EXPECT_FALSE(policy.admit(request(1, at_hours(2))));
  EXPECT_TRUE(policy.admit(request(2, at_hours(2))));
}

// ----------------------------------------------------- adaptive-headroom

TEST(AdaptiveHeadroomPolicy, GatesLikeCoaxHeadroomAtItsCurrentFraction) {
  hfc::CoaxSpec spec;  // available_low = 1.6 Gb/s
  cache::AdaptiveHeadroomPolicy policy(spec, 0.5, at_hours(6), 0.05);
  EXPECT_DOUBLE_EQ(policy.fraction(), 0.5);
  EXPECT_TRUE(policy.admit(
      request(0, at_hours(1), DataRate::megabits_per_second(700))));
  EXPECT_FALSE(policy.admit(
      request(0, at_hours(1), DataRate::megabits_per_second(800))));
}

TEST(AdaptiveHeadroomPolicy, ClimbsWhileHitRateImprovesAndReverses) {
  hfc::CoaxSpec spec;
  cache::AdaptiveHeadroomPolicy policy(spec, 0.5, at_hours(1), 0.1);

  // Window 1 (rate 0.5; no previous window to compare against).
  policy.on_serve(true, at_hours(0));
  policy.on_serve(false, at_hours(0));
  // First completed window: nothing to reverse against, so the climber
  // takes its optimistic first step upward.
  policy.on_serve(true, at_hours(1));
  EXPECT_DOUBLE_EQ(policy.fraction(), 0.6);
  policy.on_serve(true, at_hours(1));  // window 2 rate: 1.0

  // Window 2 -> 3: rate improved (1.0 > 0.5): keep direction, step up.
  policy.on_serve(false, at_hours(2));
  EXPECT_DOUBLE_EQ(policy.fraction(), 0.7);
  policy.on_serve(false, at_hours(2));  // window 3 rate: 0.0

  // Window 3 -> 4: rate degraded (0.0 < 1.0): reverse, step down.
  policy.on_serve(true, at_hours(3));
  EXPECT_DOUBLE_EQ(policy.fraction(), 0.6);
}

TEST(AdaptiveHeadroomPolicy, SparseStreamRotatesInConstantTime) {
  // Regression: rotate() used to advance window_end_ one window at a time,
  // so a multi-week gap between events cost O(gap / window) iterations.
  // With a 1-second window and ~50-year gaps, the old loop would spin
  // ~1.6e9 times per event — this test only terminates if the jump is
  // arithmetic.
  hfc::CoaxSpec spec;
  cache::AdaptiveHeadroomPolicy policy(spec, 0.5, sim::SimTime::seconds(1),
                                       0.05);
  for (std::int64_t i = 1; i <= 1000; ++i) {
    policy.on_serve(i % 2 == 0, sim::SimTime::days(i * 365 * 50));
  }
  EXPECT_GE(policy.fraction(), cache::AdaptiveHeadroomPolicy::kMinFraction);
  EXPECT_LE(policy.fraction(), 1.0);
  // The climber still functions after the jumps: the gate answers.
  EXPECT_TRUE(policy.admit(request(0, sim::SimTime::days(1000 * 365 * 50),
                                   DataRate{})));
}

TEST(AdaptiveHeadroomPolicy, FractionStaysClamped) {
  hfc::CoaxSpec spec;
  cache::AdaptiveHeadroomPolicy policy(spec, 0.1, at_hours(1), 0.2);
  // Drive the climber downward: every window's rate is worse than a
  // perfect first window, so after the first reversal it keeps falling —
  // but never through the floor.
  policy.on_serve(true, at_hours(0));
  for (int h = 1; h < 12; ++h) policy.on_serve(false, at_hours(h));
  EXPECT_GE(policy.fraction(), cache::AdaptiveHeadroomPolicy::kMinFraction);
  EXPECT_LE(policy.fraction(), 1.0);
}

// ------------------------------------------------- index-server gating

SystemConfig gated_config() {
  SystemConfig config;
  config.neighborhood_size = 4;
  config.per_peer_storage = DataSize::gigabytes(1);
  config.stream_rate = DataRate::megabits_per_second(8.0);
  config.strategy.kind = StrategyKind::Lru;
  config.warmup = sim::SimTime{};
  return config;
}

// `make_admission` builds the gate over the fixture's access history.  The
// catalog's programs are 10 minutes long: 600 MB at 8 Mb/s.
struct GatedFixture {
  template <typename MakeAdmission>
  explicit GatedFixture(MakeAdmission make_admission,
                        SystemConfig cfg = gated_config())
      : config(cfg),
        catalog(test::uniform_catalog(4, 10)),
        media(sim::SimTime::days(1), config.meter_bucket),
        server(NeighborhoodId{0}, config.neighborhood_size, config, catalog,
               test::one_cell(std::make_unique<cache::LruStrategy>(history),
                              make_admission(history)),
               media, sim::SimTime::days(1)) {}

  // A session start as the shard runs it: the history records it first.
  std::uint64_t start(ProgramId program, sim::SimTime t) {
    history.record(program, t);
    return server.start_session(program, t);
  }

  SystemConfig config;
  trace::Catalog catalog;
  MediaServer media;
  cache::AccessHistory history;
  IndexServer server;
};

TEST(IndexServerAdmission, RefusalLeavesCacheUntouchedAndCounts) {
  GatedFixture f([](cache::AccessHistory& history) {
    return std::make_unique<cache::SecondHitPolicy>(history, at_hours(24));
  });

  // First-ever session: second-hit refuses, nothing fills.
  const bool admit =
      f.start(ProgramId{0}, sim::SimTime{});
  EXPECT_FALSE(admit);
  f.server.serve_segment(PeerId{0}, {ProgramId{0}, 0},
                         {sim::SimTime{}, sim::SimTime::seconds(300)}, admit,
                         true);
  EXPECT_EQ(f.server.store().used(), DataSize{});
  EXPECT_EQ(f.server.cells()[f.server.primary()].scorer()->cached_count(),
            0u);
  EXPECT_EQ(f.server.counters().fills, 0u);
  EXPECT_EQ(f.server.counters().admission_denials, 1u);

  // Second session for the same program: admitted, fills.
  const bool admit2 = f.start(ProgramId{0}, sim::SimTime::seconds(400));
  EXPECT_TRUE(admit2);
  f.server.serve_segment(
      PeerId{1}, {ProgramId{0}, 0},
      {sim::SimTime::seconds(400), sim::SimTime::seconds(700)}, admit2, true);
  EXPECT_EQ(f.server.counters().fills, 1u);
}

TEST(IndexServerAdmission, CoaxGateClosesUnderLoadAndReopens) {
  // Shrink the plant so one 8 Mb/s stream already saturates 50% of the
  // available band: available = 20 - 10 = 10 Mb/s, threshold 5 Mb/s.
  auto cfg = gated_config();
  cfg.coax.downstream_low = DataRate::megabits_per_second(20);
  cfg.coax.tv_broadcast = DataRate::megabits_per_second(10);
  GatedFixture f(
      [&](cache::AccessHistory&) {
        return std::make_unique<cache::CoaxHeadroomPolicy>(cfg.coax, 0.5);
      },
      cfg);

  // Idle coax: admitted.
  const bool admit =
      f.start(ProgramId{0}, sim::SimTime{});
  EXPECT_TRUE(admit);
  // One full-bucket transmission pushes the first bucket's average to
  // 8 Mb/s, past the 5 Mb/s threshold...
  f.server.serve_segment(PeerId{0}, {ProgramId{0}, 0},
                         {sim::SimTime{}, sim::SimTime::minutes(15)}, admit,
                         false);
  EXPECT_FALSE(f.start(ProgramId{1}, sim::SimTime::minutes(5)));
  EXPECT_EQ(f.server.counters().admission_denials, 1u);
  // ...but the next bucket is quiet again: the gate reopens.
  EXPECT_TRUE(f.start(ProgramId{2}, sim::SimTime::minutes(20)));
}

// ---------------------------------------------------------- system level

// The acceptance scenario: with the coax band artificially tight, the
// headroom gate must change the outcome of an otherwise identical run —
// fewer admissions, fewer peer hits.
TEST(AdmissionSystem, CoaxHeadroomGateChangesHitRate) {
  auto workload = test::small_workload(3, 777);
  workload.user_count = 300;
  workload.program_count = 80;
  workload.sessions_per_user_per_day = 6.0;
  const auto trace = trace::generate_power_info_like(workload);

  SystemConfig config;
  config.neighborhood_size = 100;
  config.per_peer_storage = DataSize::megabytes(400);
  config.strategy.kind = StrategyKind::Lfu;
  config.strategy.lfu_history = sim::SimTime::hours(24);
  config.warmup = sim::SimTime::days(1);
  // ~37 Mb/s effective band; evening peaks of a 100-peer neighborhood
  // exceed 10% of it, so the gate closes during exactly the hours that
  // generate most fills.
  config.coax.downstream_low = DataRate::megabits_per_second(40);
  config.coax.tv_broadcast = DataRate::megabits_per_second(3);
  config.admission_policy.headroom_fraction = 0.1;

  config.admission_policy.kind = AdmissionKind::Always;
  VodSystem baseline(trace, config);
  const auto base_report = baseline.run();

  config.admission_policy.kind = AdmissionKind::CoaxHeadroom;
  VodSystem gated(trace, config);
  const auto gated_report = gated.run();

  EXPECT_NE(gated_report.hit_ratio(), base_report.hit_ratio());
  EXPECT_LT(gated_report.fills, base_report.fills);
  // The gate is serialized into the gated report only.
  EXPECT_NE(to_json(gated_report).find("\"admission_policy\":\"coax-headroom\""),
            std::string::npos);
  EXPECT_EQ(to_json(base_report).find("admission_policy"), std::string::npos);
}

// A none-strategy run instantiates no admission policy, so the report
// must not claim one — whatever the config requested.
TEST(AdmissionSystem, NoneStrategyReportsNoAdmissionPolicy) {
  const auto trace = make_trace(uniform_catalog(1), {{0, 0, 0, 300}}, 1);
  SystemConfig config;
  config.neighborhood_size = 1;
  config.strategy.kind = StrategyKind::None;
  config.admission_policy.kind = AdmissionKind::CoaxHeadroom;
  config.warmup = sim::SimTime{};
  VodSystem system(trace, config);
  const auto report = system.run();
  EXPECT_EQ(report.admission_policy, AdmissionKind::Always);
  EXPECT_EQ(to_json(report).find("admission_policy"), std::string::npos);
}

// Second-hit must also be visible at system level: one-hit wonders stop
// being cached, so fills drop against the always-admit baseline.
TEST(AdmissionSystem, SecondHitReducesFills) {
  auto workload = test::small_workload(2, 4242);
  const auto trace = trace::generate_power_info_like(workload);

  SystemConfig config;
  config.neighborhood_size = 100;
  // Must exceed one 300 s x 8.06 Mb/s segment (~302 MB), or no peer can
  // place anything and both runs degenerate to zero fills.
  config.per_peer_storage = DataSize::megabytes(400);
  config.strategy.kind = StrategyKind::Lru;
  config.warmup = sim::SimTime{};

  VodSystem baseline(trace, config);
  const auto base_report = baseline.run();

  config.admission_policy.kind = AdmissionKind::SecondHit;
  VodSystem gated(trace, config);
  const auto gated_report = gated.run();

  EXPECT_LT(gated_report.fills, base_report.fills);
  EXPECT_EQ(gated_report.sessions, base_report.sessions);
}

}  // namespace
}  // namespace vodcache::core
