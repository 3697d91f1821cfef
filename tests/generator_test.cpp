// Tests for the synthetic PowerInfo-like workload generator: determinism,
// structural validity, and the calibration targets from DESIGN.md section 6.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "analysis/load_analysis.hpp"
#include "analysis/popularity_analysis.hpp"
#include "test_support.hpp"
#include "trace/generator.hpp"

namespace vodcache::trace {
namespace {

TEST(Generator, DeterministicForSameConfig) {
  const auto a = generate_power_info_like(test::small_workload(3, 99));
  const auto b = generate_power_info_like(test::small_workload(3, 99));
  ASSERT_EQ(a.session_count(), b.session_count());
  for (std::size_t i = 0; i < a.session_count(); ++i) {
    EXPECT_EQ(a.sessions()[i].start, b.sessions()[i].start);
    EXPECT_EQ(a.sessions()[i].user, b.sessions()[i].user);
    EXPECT_EQ(a.sessions()[i].program, b.sessions()[i].program);
    EXPECT_EQ(a.sessions()[i].duration, b.sessions()[i].duration);
  }
}

TEST(Generator, SeedChangesOutput) {
  const auto a = generate_power_info_like(test::small_workload(2, 1));
  const auto b = generate_power_info_like(test::small_workload(2, 2));
  // Same expected volume, different realizations.
  EXPECT_NE(a.session_count(), 0u);
  bool any_difference = a.session_count() != b.session_count();
  if (!any_difference) {
    for (std::size_t i = 0; i < a.session_count(); ++i) {
      if (a.sessions()[i].start != b.sessions()[i].start) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Generator, SessionCountMatchesConfiguredRate) {
  auto config = test::small_workload(6);
  const auto trace = generate_power_info_like(config);
  const double expected = config.user_count *
                          config.sessions_per_user_per_day * config.days;
  EXPECT_NEAR(static_cast<double>(trace.session_count()), expected,
              0.10 * expected);
}

TEST(Generator, RespectsStructuralInvariants) {
  const auto trace = generate_power_info_like(test::small_workload(3));
  trace.validate();  // sorted, in-range ids, durations <= length, no
                     // pre-release sessions
  EXPECT_EQ(trace.catalog().size(), 60u);
  EXPECT_EQ(trace.user_count(), 200u);
}

TEST(Generator, SessionsNeverPrecedeIntroduction) {
  auto config = test::small_workload(5);
  config.back_catalog_fraction = 0.2;  // plenty of in-trace releases
  // With no back catalog the first hours have nothing released yet: they
  // emit no sessions instead of sampling an empty popularity table.
  auto no_back_catalog = config;
  no_back_catalog.back_catalog_fraction = 0.0;
  for (const auto& input : {config, no_back_catalog}) {
    const auto trace = generate_power_info_like(input);
    EXPECT_GT(trace.session_count(), 0u);
    for (const auto& s : trace.sessions()) {
      EXPECT_GE(s.start, trace.catalog().introduced(s.program));
    }
  }
}

TEST(Generator, DiurnalShapePeaksInEvening) {
  const auto trace = generate_power_info_like(test::small_workload(6));
  std::array<std::uint64_t, 24> by_hour{};
  for (const auto& s : trace.sessions()) ++by_hour[s.start.hour_of_day()];
  const auto peak_hour =
      std::max_element(by_hour.begin(), by_hour.end()) - by_hour.begin();
  EXPECT_GE(peak_hour, 19);
  EXPECT_LE(peak_hour, 22);
  // Dead of night is much quieter than the evening.
  EXPECT_LT(by_hour[4] * 5, by_hour[20]);
}

TEST(Generator, SessionLengthsSkewShort) {
  auto config = test::small_workload(4);
  const auto trace = generate_power_info_like(config);
  std::uint64_t under_8min = 0;
  for (const auto& s : trace.sessions()) {
    under_8min += (s.duration <= sim::SimTime::minutes(8));
  }
  const double fraction =
      static_cast<double>(under_8min) / trace.session_count();
  // Median of the lognormal is 8 minutes; truncation at program length only
  // moves mass downward.
  EXPECT_GE(fraction, 0.45);
  EXPECT_LE(fraction, 0.70);
}

TEST(Generator, CompletionSpikeExists) {
  // Sessions truncated at the program length pile onto one exact value.
  auto config = test::small_workload(4);
  const auto trace = generate_power_info_like(config);
  std::uint64_t completions = 0;
  for (const auto& s : trace.sessions()) {
    completions += (s.duration == trace.catalog().length(s.program));
  }
  const double fraction =
      static_cast<double>(completions) / trace.session_count();
  EXPECT_GE(fraction, 0.05);  // paper figure 6: a visible jump
  EXPECT_LE(fraction, 0.40);
}

TEST(Generator, PopularitySkewOrdersOfMagnitude) {
  // Needs a catalog large enough that the 95%-quantile program sits well
  // down the Zipf curve (rank ~25 of 500).
  auto config = test::small_workload(6);
  config.user_count = 500;
  config.program_count = 500;
  config.sessions_per_user_per_day = 8.0;
  const auto trace = generate_power_info_like(config);
  const auto ranking = analysis::rank_by_sessions(trace);
  // Figure 2's qualitative shape: a small number of extremely popular
  // programs and a very large number of unpopular ones.  The head is
  // deliberately Mandelbrot-flattened, so the strong ordering holds against
  // the median, and a weaker one against the 95% quantile.
  const auto q95 = analysis::quantile_program(ranking, 0.95);
  const auto median = analysis::quantile_program(ranking, 0.50);
  std::uint64_t q95_sessions = 0;
  std::uint64_t median_sessions = 0;
  for (const auto& r : ranking) {
    if (r.program == q95) q95_sessions = r.sessions;
    if (r.program == median) median_sessions = r.sessions;
  }
  EXPECT_GE(ranking.front().sessions,
            2 * std::max<std::uint64_t>(q95_sessions, 1));
  EXPECT_GE(ranking.front().sessions,
            10 * std::max<std::uint64_t>(median_sessions, 1));
  EXPECT_GE(q95_sessions, 2 * median_sessions);
}

TEST(Generator, FreshnessBoostsNewReleases) {
  // Horizon must exceed intro + max_age for a program to qualify
  // (popularity_by_age avoids right-censoring), so give the trace slack.
  auto config = test::small_workload(14, 7);
  config.back_catalog_fraction = 0.3;
  config.sessions_per_user_per_day = 8.0;
  const auto trace = generate_power_info_like(config);
  // Average sessions/day in the first 2 days after release vs days 6-7.
  const auto decay = analysis::popularity_by_age(trace, 8, /*min_sessions=*/20);
  const double early = (decay[0] + decay[1]) / 2.0;
  const double late = (decay[6] + decay[7]) / 2.0;
  ASSERT_GT(early, 0.0);
  // Paper figure 12: ~80% drop after a week; accept anything >= 40% for the
  // small statistical sample used in tests.
  EXPECT_LT(late, 0.6 * early);
}

TEST(Generator, PopularityWeightModel) {
  GeneratorConfig config;
  ProgramInfo program;
  program.length = sim::SimTime::minutes(60);
  program.introduced = sim::SimTime::days(10);
  program.base_weight = 2.0;
  program.fresh_weight = 0.5;

  // Unavailable before introduction.
  EXPECT_EQ(popularity_weight_at(program, sim::SimTime::days(9), config), 0.0);
  // At release: base*floor + boost*fresh.
  EXPECT_NEAR(popularity_weight_at(program, sim::SimTime::days(10), config),
              2.0 * config.freshness_floor + config.freshness_boost * 0.5,
              1e-12);
  // Far in the future: floor only.
  EXPECT_NEAR(popularity_weight_at(program, sim::SimTime::days(300), config),
              2.0 * config.freshness_floor, 1e-6);
  // Monotone decay in between.
  const double w1 =
      popularity_weight_at(program, sim::SimTime::days(11), config);
  const double w2 =
      popularity_weight_at(program, sim::SimTime::days(14), config);
  EXPECT_GT(w1, w2);

  // A program with no fresh coefficient has no release dynamics.
  program.fresh_weight = 0.0;
  EXPECT_NEAR(popularity_weight_at(program, sim::SimTime::days(10), config),
              2.0 * config.freshness_floor, 1e-12);
}

TEST(Generator, ValidatesConfig) {
  GeneratorConfig config;
  config.days = 0;
  EXPECT_DEATH((void)generate_power_info_like(config), "precondition");
}

TEST(Generator, LengthMixProbabilitiesMustSumToOne) {
  GeneratorConfig config;
  config.length_mix[0].probability += 0.5;
  EXPECT_DEATH((void)generate_power_info_like(config), "precondition");
}

TEST(Generator, ProgramLengthsFollowConfiguredMix) {
  const auto trace = generate_power_info_like(test::small_workload(2));
  const GeneratorConfig config;  // defaults share the same length mix values
  for (const auto& p : trace.catalog().programs()) {
    bool found = false;
    for (const auto& bucket : test::small_workload(2).length_mix) {
      if (p.length == sim::SimTime::from_seconds_f(bucket.minutes * 60.0)) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "unexpected program length "
                       << p.length.minutes_f();
  }
}

// Calibration test against the full-scale defaults.  A short 4-day slice at
// full user count is enough to check the demand anchor (~27s of trace time
// per simulated day is generated in a few hundred ms).
TEST(GeneratorCalibration, NoCachePeakDemandNearPaper) {
  GeneratorConfig config;  // full-scale defaults
  config.days = 4;
  const auto trace = generate_power_info_like(config);
  const auto peak = analysis::demand_peak(
      trace, DataRate::megabits_per_second(8.06), sim::HourWindow{19, 22});
  // Paper figure 7 / section VI-A: ~17 Gb/s with no cache.
  EXPECT_GE(peak.mean.gbps(), 13.0);
  EXPECT_LE(peak.mean.gbps(), 21.0);
}

TEST(GeneratorCalibration, DailyVolumeStable) {
  GeneratorConfig config;
  config.days = 4;
  const auto trace = generate_power_info_like(config);
  std::array<std::uint64_t, 4> by_day{};
  const auto day_ms = sim::SimTime::days(1).millis_count();
  for (const auto& s : trace.sessions()) ++by_day[s.start.millis_count() / day_ms];
  for (const auto day_count : by_day) {
    EXPECT_NEAR(static_cast<double>(day_count),
                config.user_count * config.sessions_per_user_per_day,
                0.08 * config.user_count * config.sessions_per_user_per_day);
  }
}

}  // namespace
}  // namespace vodcache::trace
