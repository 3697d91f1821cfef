// Unit tests for src/util: strong ids, data-size/rate units, deterministic
// RNG and its distributions, descriptive statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>
#include <vector>

#include "util/ids.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace vodcache {
namespace {

// quantile_sorted over a sorted copy, so samples can be written unsorted.
double quantile_of(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  return quantile_sorted(xs, q);
}

// ---------------------------------------------------------------- StrongId

TEST(StrongId, DefaultConstructsToZero) {
  EXPECT_EQ(UserId{}.value(), 0u);
  EXPECT_EQ(ProgramId{}.value(), 0u);
}

TEST(StrongId, ComparesByValue) {
  EXPECT_EQ(UserId{3}, UserId{3});
  EXPECT_NE(UserId{3}, UserId{4});
  EXPECT_LT(UserId{3}, UserId{4});
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<UserId, ProgramId>);
  static_assert(!std::is_same_v<NeighborhoodId, PeerId>);
}

TEST(StrongId, HashableInUnorderedContainers) {
  std::unordered_set<ProgramId> set;
  set.insert(ProgramId{1});
  set.insert(ProgramId{1});
  set.insert(ProgramId{2});
  EXPECT_EQ(set.size(), 2u);
}

// ---------------------------------------------------------------- DataSize

TEST(DataSize, BitByteConversions) {
  EXPECT_EQ(DataSize::bytes(1).bit_count(), 8);
  EXPECT_EQ(DataSize::kilobytes(1).bit_count(), 8000);
  EXPECT_EQ(DataSize::megabytes(1).bit_count(), 8'000'000);
  EXPECT_EQ(DataSize::gigabytes(1).bit_count(), 8'000'000'000LL);
}

TEST(DataSize, Arithmetic) {
  const auto a = DataSize::megabytes(3);
  const auto b = DataSize::megabytes(2);
  EXPECT_EQ((a + b).byte_count(), 5e6);
  EXPECT_EQ((a - b).byte_count(), 1e6);
  EXPECT_EQ((b * 4).byte_count(), 8e6);
}

TEST(DataSize, Comparisons) {
  EXPECT_LT(DataSize::gigabytes(1), DataSize::gigabytes(2));
  EXPECT_EQ(DataSize::gigabytes(1), DataSize::megabytes(1000));
}

TEST(DataSize, UnitViews) {
  EXPECT_DOUBLE_EQ(DataSize::gigabytes(2000).as_terabytes(), 2.0);
  EXPECT_DOUBLE_EQ(DataSize::gigabytes(5).as_gigabytes(), 5.0);
}

// ---------------------------------------------------------------- DataRate

TEST(DataRate, UnitConversions) {
  EXPECT_DOUBLE_EQ(DataRate::megabits_per_second(8.06).bps(), 8.06e6);
  EXPECT_DOUBLE_EQ(DataRate::gigabits_per_second(17).mbps(), 17000.0);
  EXPECT_DOUBLE_EQ(DataRate::bits_per_second(5e9).gbps(), 5.0);
}

TEST(DataRate, OverSecondsComputesTransferredData) {
  // One 5-minute segment at the paper's 8.06 Mb/s.
  const auto segment =
      DataRate::megabits_per_second(8.06).over_seconds(300.0);
  EXPECT_EQ(segment.bit_count(), static_cast<std::int64_t>(8.06e6 * 300));
  EXPECT_NEAR(segment.byte_count(), 302.25e6, 1.0);
}

TEST(DataRate, Arithmetic) {
  const auto a = DataRate::megabits_per_second(10);
  const auto b = DataRate::megabits_per_second(4);
  EXPECT_DOUBLE_EQ((a + b).mbps(), 14.0);
  EXPECT_DOUBLE_EQ((a - b).mbps(), 6.0);
  EXPECT_DOUBLE_EQ((a * 2.5).mbps(), 25.0);
}

// --------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LE(equal, 1);
}

TEST(Rng, ZeroSeedIsWellMixed) {
  Rng rng(0);
  EXPECT_NE(rng.next_u64(), 0u);
  EXPECT_NE(rng.next_u64(), rng.next_u64());
}

TEST(Rng, UniformU64StaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform_u64(13), 13u);
}

TEST(Rng, UniformU64CoversAllResidues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_u64(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformU64IsUnbiased) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_u64(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 400);  // ~4 sigma
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 60);  // the paper's scaling jitter
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 60);
    saw_lo |= (v == 1);
    saw_hi |= (v == 60);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-10, -5);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -5);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform_int(9, 9), 9);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformDoubleMeanNearHalf) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.uniform_double();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

// The sample's spread about its mean: mean((x - mean)^2), the second
// central moment the distribution tests below compare against theory.
double central_second_moment(const std::vector<double>& xs) {
  const double m = mean(xs);
  std::vector<double> squares;
  squares.reserve(xs.size());
  for (const double x : xs) squares.push_back((x - m) * (x - m));
  return mean(squares);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  std::vector<double> draws;
  for (int i = 0; i < 200000; ++i) draws.push_back(rng.normal(5.0, 2.0));
  EXPECT_NEAR(mean(draws), 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(central_second_moment(draws)), 2.0, 0.05);
}

TEST(Rng, LognormalMedianMatches) {
  Rng rng(19);
  std::vector<double> draws;
  const double mu = std::log(480.0);  // 8-minute median, as in the workload
  for (int i = 0; i < 50000; ++i) draws.push_back(rng.lognormal(mu, 1.6));
  EXPECT_NEAR(quantile_of(draws, 0.5), 480.0, 25.0);
}

TEST(Rng, PoissonSmallLambdaMoments) {
  Rng rng(29);
  std::vector<double> draws;
  for (int i = 0; i < 100000; ++i) {
    draws.push_back(static_cast<double>(rng.poisson(3.5)));
  }
  EXPECT_NEAR(mean(draws), 3.5, 0.05);
  EXPECT_NEAR(central_second_moment(draws), 3.5, 0.15);
}

TEST(Rng, PoissonLargeLambdaMoments) {
  Rng rng(31);
  std::vector<double> draws;
  for (int i = 0; i < 50000; ++i) {
    draws.push_back(static_cast<double>(rng.poisson(900.0)));
  }
  EXPECT_NEAR(mean(draws), 900.0, 2.0);
  EXPECT_NEAR(std::sqrt(central_second_moment(draws)), 30.0, 1.0);
}

TEST(Rng, PoissonZeroLambda) {
  Rng rng(37);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

// -------------------------------------------------------------- AliasTable

TEST(AliasTable, SingleEntryAlwaysSampled) {
  const std::vector<double> w{3.0};
  AliasTable table(w);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.sample(rng), 0u);
}

TEST(AliasTable, NormalizesProbabilities) {
  const std::vector<double> w{1.0, 3.0};
  AliasTable table(w);
  EXPECT_DOUBLE_EQ(table.probability(0), 0.25);
  EXPECT_DOUBLE_EQ(table.probability(1), 0.75);
}

TEST(AliasTable, EmpiricalFrequenciesMatchWeights) {
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0};
  AliasTable table(w);
  Rng rng(43);
  std::array<int, 4> counts{};
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[table.sample(rng)];
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / kDraws, w[i] / 10.0, 0.01);
  }
}

TEST(AliasTable, ZeroWeightNeverSampled) {
  const std::vector<double> w{0.0, 1.0, 0.0, 1.0};
  AliasTable table(w);
  Rng rng(47);
  for (int i = 0; i < 20000; ++i) {
    const auto s = table.sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTable, HandlesHeavySkew) {
  std::vector<double> w(1000, 1e-6);
  w[0] = 1.0;
  AliasTable table(w);
  Rng rng(53);
  int head = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) head += (table.sample(rng) == 0);
  const double expected = 1.0 / (1.0 + 999 * 1e-6);
  EXPECT_NEAR(static_cast<double>(head) / kDraws, expected, 0.01);
}

TEST(ZipfWeights, FirstRankIsOne) {
  const auto w = zipf_weights(10, 1.0);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
  EXPECT_DOUBLE_EQ(w[9], 0.1);
}

TEST(ZipfWeights, ExponentZeroIsUniform) {
  const auto w = zipf_weights(5, 0.0);
  for (const double x : w) EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(ZipfWeights, MonotoneDecreasing) {
  const auto w = zipf_weights(100, 1.15);
  EXPECT_TRUE(std::is_sorted(w.rbegin(), w.rend()));
}

// ------------------------------------------------------------------- stats

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_EQ(mean({}), 0.0); }

TEST(Stats, MeanSimple) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, QuantileMedianOfOdd) {
  const std::vector<double> xs{5, 1, 3};
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.5), 3.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.75), 7.5);
}

TEST(Stats, QuantileEndpoints) {
  const std::vector<double> xs{4, 2, 8, 6};
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(quantile_of(xs, 1.0), 8.0);
}

TEST(Stats, QuantileSingleSample) {
  const std::vector<double> xs{7};
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(quantile_of(xs, 1.0), 7.0);
}

TEST(DataSize, MultipliableByDetectsOverflow) {
  EXPECT_TRUE(DataSize::gigabytes(10).multipliable_by(1000));
  EXPECT_TRUE(DataSize::gigabytes(1'000'000'000).multipliable_by(1));
  EXPECT_FALSE(DataSize::gigabytes(1'000'000'000).multipliable_by(1000));
  EXPECT_FALSE(DataSize::gigabytes(20).multipliable_by(1'000'000'000));
  EXPECT_TRUE(DataSize{}.multipliable_by(1'000'000'000));
}

// ------------------------------------------------------------ parse_strict

TEST(ParseStrict, AcceptsWholeStringNumbers) {
  EXPECT_EQ(util::parse_strict<int>("42"), 42);
  EXPECT_EQ(util::parse_strict<int>("-7"), -7);
  EXPECT_EQ(util::parse_strict<std::int64_t>("9000000000"), 9000000000LL);
  EXPECT_DOUBLE_EQ(*util::parse_strict<double>("0.25"), 0.25);
}

TEST(ParseStrict, RejectsGarbageAndTrailingText) {
  EXPECT_FALSE(util::parse_strict<int>(""));
  EXPECT_FALSE(util::parse_strict<int>("abc"));
  EXPECT_FALSE(util::parse_strict<int>("10x"));
  EXPECT_FALSE(util::parse_strict<int>("1 "));
  EXPECT_FALSE(util::parse_strict<double>("1.5.2"));
}

TEST(ParseStrict, RejectsOverflowForDestinationType) {
  EXPECT_FALSE(util::parse_strict<int>("4294967296"));
  EXPECT_FALSE(util::parse_strict<std::int64_t>("99999999999999999999"));
  EXPECT_TRUE(util::parse_strict<std::int64_t>("4294967296"));
}

TEST(ParseStrict, RejectsNonFiniteFloats) {
  EXPECT_FALSE(util::parse_strict<double>("nan"));
  EXPECT_FALSE(util::parse_strict<double>("inf"));
  EXPECT_FALSE(util::parse_strict<double>("-inf"));
  EXPECT_FALSE(util::parse_strict<double>("1e999"));
}

}  // namespace
}  // namespace vodcache
