// Unit tests for src/sim: simulated time, hour windows, bandwidth meters,
// and peak statistics.
#include <gtest/gtest.h>

#include <vector>

#include "sim/peak_stats.hpp"
#include "sim/rate_meter.hpp"
#include "sim/time.hpp"

namespace vodcache::sim {
namespace {

// ----------------------------------------------------------------- SimTime

TEST(SimTime, UnitConstructors) {
  EXPECT_EQ(SimTime::seconds(1).millis_count(), 1000);
  EXPECT_EQ(SimTime::minutes(5).millis_count(), 300'000);
  EXPECT_EQ(SimTime::hours(2).millis_count(), 7'200'000);
  EXPECT_EQ(SimTime::days(1).millis_count(), 86'400'000);
}

TEST(SimTime, FromSecondsRounds) {
  EXPECT_EQ(SimTime::from_seconds_f(1.0004).millis_count(), 1000);
  EXPECT_EQ(SimTime::from_seconds_f(1.0006).millis_count(), 1001);
  EXPECT_EQ(SimTime::from_seconds_f(-2.0).millis_count(), -2000);
}

TEST(SimTime, FloatViews) {
  const auto t = SimTime::hours(36);
  EXPECT_DOUBLE_EQ(t.seconds_f(), 129600.0);
  EXPECT_DOUBLE_EQ(t.minutes_f(), 2160.0);
  EXPECT_DOUBLE_EQ(t.hours_f(), 36.0);
  EXPECT_DOUBLE_EQ(t.days_f(), 1.5);
}

TEST(SimTime, CalendarHelpers) {
  const auto t = SimTime::days(3) + SimTime::hours(19) + SimTime::minutes(30);
  EXPECT_EQ(t.hour_of_day(), 19);
}

TEST(SimTime, Arithmetic) {
  EXPECT_EQ(SimTime::hours(1) + SimTime::minutes(30), SimTime::minutes(90));
  EXPECT_EQ(SimTime::hours(1) - SimTime::minutes(15), SimTime::minutes(45));
  EXPECT_LT(SimTime::seconds(59), SimTime::minutes(1));
}

TEST(Interval, DurationAndValidity) {
  const Interval i{SimTime::seconds(10), SimTime::seconds(25)};
  EXPECT_DOUBLE_EQ(i.duration_seconds(), 15.0);
  EXPECT_TRUE(i.valid());
  const Interval bad{SimTime::seconds(25), SimTime::seconds(10)};
  EXPECT_FALSE(bad.valid());
}

// -------------------------------------------------------------- HourWindow

TEST(HourWindow, ContainsSimpleWindow) {
  const HourWindow peak{19, 22};  // the paper's evening window
  EXPECT_FALSE(peak.contains(SimTime::hours(18)));
  EXPECT_TRUE(peak.contains(SimTime::hours(19)));
  EXPECT_TRUE(peak.contains(SimTime::hours(21) + SimTime::minutes(59)));
  EXPECT_FALSE(peak.contains(SimTime::hours(22)));
}

TEST(HourWindow, WorksAcrossDays) {
  const HourWindow peak{19, 22};
  EXPECT_TRUE(peak.contains(SimTime::days(5) + SimTime::hours(20)));
  EXPECT_FALSE(peak.contains(SimTime::days(5) + SimTime::hours(2)));
}

TEST(HourWindow, WrappingWindow) {
  const HourWindow late{22, 2};
  EXPECT_TRUE(late.contains(SimTime::hours(23)));
  EXPECT_TRUE(late.contains(SimTime::hours(1)));
  EXPECT_FALSE(late.contains(SimTime::hours(12)));
}

TEST(HourWindow, FullDayWindow) {
  const HourWindow all{0, 24};
  for (int h = 0; h < 24; ++h) EXPECT_TRUE(all.contains(SimTime::hours(h)));
}

// --------------------------------------------------------------- RateMeter

TEST(RateMeter, SingleBucketAccounting) {
  RateMeter meter(SimTime::hours(1), SimTime::minutes(15));
  meter.add({SimTime::minutes(0), SimTime::minutes(5)},
            DataRate::megabits_per_second(8.0));
  EXPECT_DOUBLE_EQ(meter.bucket_bits(0), 8e6 * 300);
  EXPECT_DOUBLE_EQ(meter.bucket_bits(1), 0.0);
}

TEST(RateMeter, SplitsAcrossBuckets) {
  RateMeter meter(SimTime::hours(1), SimTime::minutes(15));
  // 10 minutes starting at minute 10: 5 minutes in each of buckets 0 and 1.
  meter.add({SimTime::minutes(10), SimTime::minutes(20)},
            DataRate::megabits_per_second(8.0));
  EXPECT_DOUBLE_EQ(meter.bucket_bits(0), 8e6 * 300);
  EXPECT_DOUBLE_EQ(meter.bucket_bits(1), 8e6 * 300);
}

TEST(RateMeter, ConservesTotalBits) {
  RateMeter meter(SimTime::days(1), SimTime::minutes(15));
  double expected = 0.0;
  for (int i = 0; i < 200; ++i) {
    const auto begin = SimTime::seconds(i * 337);
    const auto end = begin + SimTime::seconds(123 + i);
    meter.add({begin, end}, DataRate::megabits_per_second(8.06));
    expected += 8.06e6 * (end - begin).seconds_f();
  }
  EXPECT_NEAR(meter.total_bits(), expected, 1.0);
}

TEST(RateMeter, ClipsOutsideHorizon) {
  RateMeter meter(SimTime::hours(1), SimTime::minutes(15));
  meter.add({SimTime::minutes(-10), SimTime::minutes(10)},
            DataRate::megabits_per_second(6.0));
  meter.add({SimTime::minutes(55), SimTime::minutes(70)},
            DataRate::megabits_per_second(6.0));
  // Only 10 + 5 minutes landed inside, in the first and last buckets.
  EXPECT_NEAR(meter.total_bits(), 6e6 * 15 * 60, 1.0);
  EXPECT_NEAR(meter.bucket_bits(0), 6e6 * 10 * 60, 1.0);
  EXPECT_NEAR(meter.bucket_bits(3), 6e6 * 5 * 60, 1.0);
}

TEST(RateMeter, BucketRate) {
  RateMeter meter(SimTime::hours(1), SimTime::minutes(15));
  meter.add({SimTime::minutes(0), SimTime::minutes(15)},
            DataRate::megabits_per_second(12.0));
  EXPECT_DOUBLE_EQ(meter.bucket_rate(0).mbps(), 12.0);
}

TEST(RateMeter, HourlyProfileAveragesOverDays) {
  RateMeter meter(SimTime::days(2), SimTime::minutes(15));
  // 1 hour of 10 Mb/s at 19:00 on day 0 only -> hour 19 averages 5 Mb/s
  // over the two days.
  meter.add({SimTime::hours(19), SimTime::hours(20)},
            DataRate::megabits_per_second(10.0));
  const auto profile = meter.hourly_profile();
  EXPECT_DOUBLE_EQ(profile[19].mbps(), 5.0);
  EXPECT_DOUBLE_EQ(profile[18].mbps(), 0.0);
}

TEST(RateMeter, HourlyProfileFromExcludesWarmup) {
  RateMeter meter(SimTime::days(2), SimTime::minutes(15));
  meter.add({SimTime::hours(19), SimTime::hours(20)},
            DataRate::megabits_per_second(10.0));
  const auto profile = meter.hourly_profile(SimTime::days(1));
  EXPECT_DOUBLE_EQ(profile[19].mbps(), 0.0);
}

TEST(RateMeter, WindowSamples) {
  RateMeter meter(SimTime::days(1), SimTime::minutes(15));
  meter.add({SimTime::hours(20), SimTime::hours(21)},
            DataRate::megabits_per_second(4.0));
  const auto samples = meter.window_samples_bps(HourWindow{19, 22});
  ASSERT_EQ(samples.size(), 12u);  // 3 hours x 4 buckets
  int nonzero = 0;
  for (const double s : samples) nonzero += (s > 0.0);
  EXPECT_EQ(nonzero, 4);
}

TEST(RateMeter, WindowSamplesFromFilter) {
  RateMeter meter(SimTime::days(3), SimTime::minutes(15));
  const auto all = meter.window_samples_bps(HourWindow{19, 22});
  const auto later =
      meter.window_samples_bps(HourWindow{19, 22}, SimTime::days(1));
  EXPECT_EQ(all.size(), 36u);
  EXPECT_EQ(later.size(), 24u);
}

TEST(RateMeter, MergeAddsBuckets) {
  RateMeter a(SimTime::hours(1), SimTime::minutes(15));
  RateMeter b(SimTime::hours(1), SimTime::minutes(15));
  a.add({SimTime::minutes(0), SimTime::minutes(15)},
        DataRate::megabits_per_second(1.0));
  b.add({SimTime::minutes(0), SimTime::minutes(15)},
        DataRate::megabits_per_second(2.0));
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.bucket_rate(0).mbps(), 3.0);
}

TEST(RateMeter, ZeroRateIsNoOp) {
  RateMeter meter(SimTime::hours(1), SimTime::minutes(15));
  meter.add({SimTime::minutes(0), SimTime::minutes(15)}, DataRate{});
  EXPECT_DOUBLE_EQ(meter.total_bits(), 0.0);
}

// ------------------------------------------- RateMeter::rate_at edge pins
//
// The coax-headroom admission gate reads rate_at mid-simulation, so its
// window-edge semantics are load-bearing: these tests pin them.

// A query exactly on a bucket boundary reads the bucket *beginning* there
// (buckets are half-open, like every interval in the simulator).
TEST(RateMeterRateAt, BoundaryBelongsToTheBucketItBegins) {
  RateMeter meter(SimTime::hours(1), SimTime::minutes(15));
  meter.add({SimTime::minutes(0), SimTime::minutes(15)},
            DataRate::megabits_per_second(12.0));
  // Everywhere inside bucket 0, including t = 0.
  EXPECT_DOUBLE_EQ(meter.rate_at(SimTime{}).mbps(), 12.0);
  EXPECT_DOUBLE_EQ(
      meter.rate_at(SimTime::minutes(15) - SimTime::millis(1)).mbps(), 12.0);
  // The boundary itself is the next (empty) bucket.
  EXPECT_DOUBLE_EQ(meter.rate_at(SimTime::minutes(15)).mbps(), 0.0);
}

// Before any event is accounted, every bucket reads zero (a fresh meter
// never reports phantom load), and buckets after the last transmission
// decay to exactly zero — there is no smearing across buckets.
TEST(RateMeterRateAt, ZeroBeforeFirstAndAfterLastEvent) {
  RateMeter meter(SimTime::hours(1), SimTime::minutes(15));
  EXPECT_DOUBLE_EQ(meter.rate_at(SimTime{}).bps(), 0.0);
  EXPECT_DOUBLE_EQ(meter.rate_at(SimTime::minutes(59)).bps(), 0.0);
  meter.add({SimTime::minutes(16), SimTime::minutes(29)},
            DataRate::megabits_per_second(9.0));
  EXPECT_DOUBLE_EQ(meter.rate_at(SimTime::minutes(10)).bps(), 0.0);
  EXPECT_DOUBLE_EQ(meter.rate_at(SimTime::minutes(31)).bps(), 0.0);
}

// An interval ending exactly on a bucket boundary spills nothing into the
// next bucket, and one beginning there contributes nothing to the
// previous one.
TEST(RateMeterRateAt, IntervalEdgesDoNotLeakAcrossBuckets) {
  RateMeter meter(SimTime::hours(1), SimTime::minutes(15));
  meter.add({SimTime::minutes(15), SimTime::minutes(30)},
            DataRate::megabits_per_second(5.0));
  EXPECT_DOUBLE_EQ(meter.rate_at(SimTime::minutes(14)).bps(), 0.0);
  EXPECT_DOUBLE_EQ(meter.rate_at(SimTime::minutes(15)).mbps(), 5.0);
  EXPECT_DOUBLE_EQ(meter.rate_at(SimTime::minutes(30) - SimTime::millis(1))
                       .mbps(),
                   5.0);
  EXPECT_DOUBLE_EQ(meter.rate_at(SimTime::minutes(30)).bps(), 0.0);
}

// Horizon edge: when the horizon is not a bucket multiple, the final
// bucket covers only the remainder, and averages divide by the *covered*
// width — a wire busy for the bucket's whole covered span reports the
// true rate, not rate x covered/nominal.  (This was the off-by-one-bucket
// understatement the audit found; fixed alongside these pins.)
TEST(RateMeterRateAt, PartialFinalBucketAveragesOverCoveredWidth) {
  // 100-minute horizon, 15-minute buckets: 7 buckets, the last covering
  // [90, 100) — 10 of its nominal 15 minutes.
  RateMeter meter(SimTime::minutes(100), SimTime::minutes(15));
  ASSERT_EQ(meter.window_samples_bps(HourWindow{0, 24}).size(), 7u);
  EXPECT_DOUBLE_EQ(meter.bucket_seconds(5), 900.0);
  EXPECT_DOUBLE_EQ(meter.bucket_seconds(6), 600.0);

  meter.add({SimTime::minutes(90), SimTime::minutes(100)},
            DataRate::megabits_per_second(6.0));
  EXPECT_DOUBLE_EQ(meter.rate_at(SimTime::minutes(95)).mbps(), 6.0);
  EXPECT_DOUBLE_EQ(meter.bucket_rate(6).mbps(), 6.0);
  // The last representable query time still lands in the final bucket.
  EXPECT_DOUBLE_EQ(
      meter.rate_at(SimTime::minutes(100) - SimTime::millis(1)).mbps(), 6.0);
  // Bits are conserved regardless of the width used for averaging.
  EXPECT_NEAR(meter.total_bits(), 6e6 * 600, 1.0);

  // The same clipped width feeds the figure pipelines: a full-horizon
  // transmission yields a flat profile, not a dip in the final hour.
  RateMeter flat(SimTime::minutes(100), SimTime::minutes(15));
  flat.add({SimTime{}, SimTime::minutes(100)},
           DataRate::megabits_per_second(8.0));
  const auto samples = flat.window_samples_bps(HourWindow{0, 24});
  ASSERT_EQ(samples.size(), 7u);
  for (const double s : samples) EXPECT_DOUBLE_EQ(s, 8e6);
  const auto profile = flat.hourly_profile();
  EXPECT_DOUBLE_EQ(profile[0].mbps(), 8.0);
  EXPECT_DOUBLE_EQ(profile[1].mbps(), 8.0);
}

// --------------------------------------------------------------- PeakStats

TEST(PeakStats, EmptySamples) {
  const auto stats = peak_stats(std::vector<double>{});
  EXPECT_EQ(stats.sample_count, 0u);
  EXPECT_DOUBLE_EQ(stats.mean.bps(), 0.0);
}

TEST(PeakStats, ComputesQuantiles) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i * 1e6);
  const auto stats = peak_stats(samples);
  EXPECT_EQ(stats.sample_count, 100u);
  EXPECT_DOUBLE_EQ(stats.mean.mbps(), 50.5);
  EXPECT_NEAR(stats.q05.mbps(), 5.95, 1e-6);
  EXPECT_NEAR(stats.q95.mbps(), 95.05, 1e-6);
  EXPECT_DOUBLE_EQ(stats.max.mbps(), 100.0);
}

TEST(PeakStats, FromMeterWindow) {
  RateMeter meter(SimTime::days(1), SimTime::minutes(15));
  meter.add({SimTime::hours(19), SimTime::hours(22)},
            DataRate::gigabits_per_second(17.0));
  const auto stats = peak_stats(meter, HourWindow{19, 22});
  EXPECT_DOUBLE_EQ(stats.mean.gbps(), 17.0);
  EXPECT_DOUBLE_EQ(stats.q95.gbps(), 17.0);
}

TEST(PeakStats, FromRespectsWarmup) {
  RateMeter meter(SimTime::days(2), SimTime::minutes(15));
  // Day 0 peak at 10 Gb/s, day 1 peak at 2 Gb/s.
  meter.add({SimTime::hours(19), SimTime::hours(22)},
            DataRate::gigabits_per_second(10.0));
  meter.add({SimTime::days(1) + SimTime::hours(19),
             SimTime::days(1) + SimTime::hours(22)},
            DataRate::gigabits_per_second(2.0));
  const auto all = peak_stats(meter, HourWindow{19, 22});
  const auto steady = peak_stats(meter, HourWindow{19, 22}, SimTime::days(1));
  EXPECT_DOUBLE_EQ(all.mean.gbps(), 6.0);
  EXPECT_DOUBLE_EQ(steady.mean.gbps(), 2.0);
}

}  // namespace
}  // namespace vodcache::sim
