// Tests for the paper's section V-A trace-scaling transforms.
#include <gtest/gtest.h>

#include <map>

#include "test_support.hpp"
#include "trace/scaler.hpp"

namespace vodcache::trace {
namespace {

using test::make_trace;
using test::scale_catalog;
using test::scale_population;
using test::uniform_catalog;

Trace base_trace() {
  return make_trace(uniform_catalog(4, 30),
                    {{100, 0, 0, 300},
                     {250, 1, 1, 600},
                     {400, 2, 2, 60},
                     {900, 0, 3, 120},
                     {1800, 3, 0, 240}},
                    /*user_count=*/4);
}

// ----------------------------------------------------------- population xN

TEST(ScalePopulation, FactorOneIsIdentity) {
  const auto trace = base_trace();
  const auto scaled = scale_population(trace, 1);
  EXPECT_EQ(scaled.session_count(), trace.session_count());
  EXPECT_EQ(scaled.user_count(), trace.user_count());
}

TEST(ScalePopulation, MultipliesUsersAndEvents) {
  const auto scaled = scale_population(base_trace(), 3);
  EXPECT_EQ(scaled.user_count(), 12u);
  EXPECT_EQ(scaled.session_count(), 15u);
  scaled.validate();
}

TEST(ScalePopulation, CopyZeroKeepsOriginalTimes) {
  const auto trace = base_trace();
  const auto scaled = scale_population(trace, 2);
  // Each original (user, start) pair must appear unchanged.
  std::multimap<std::int64_t, std::uint32_t> originals;
  for (const auto& s : trace.sessions()) {
    originals.emplace(s.start.millis_count(), s.user.value());
  }
  std::size_t matched = 0;
  for (const auto& s : scaled.sessions()) {
    if (s.user.value() < trace.user_count()) {
      const auto range = originals.equal_range(s.start.millis_count());
      for (auto it = range.first; it != range.second; ++it) {
        if (it->second == s.user.value()) {
          ++matched;
          break;
        }
      }
    }
  }
  EXPECT_EQ(matched, trace.session_count());
}

TEST(ScalePopulation, CopiesAreJitteredWithinSixtySeconds) {
  const auto trace = base_trace();
  const auto scaled = scale_population(trace, 4);
  // For every copy k>0: its start differs from the original event by 1..60s.
  // Group scaled sessions by (program, duration) to match them up.
  for (const auto& s : scaled.sessions()) {
    if (s.user.value() < trace.user_count()) continue;  // copy 0
    const std::uint32_t original_user = s.user.value() % trace.user_count();
    bool matched = false;
    for (const auto& o : trace.sessions()) {
      if (o.user.value() != original_user || o.program != s.program ||
          o.duration != s.duration) {
        continue;
      }
      const auto delta = (s.start - o.start).seconds_f();
      if (delta >= 1.0 && delta <= 60.0) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "copy not within the 1-60s jitter window";
  }
}

TEST(ScalePopulation, ProgramsUntouched) {
  const auto trace = base_trace();
  const auto scaled = scale_population(trace, 5);
  EXPECT_EQ(scaled.catalog().size(), trace.catalog().size());
  // Per-program event counts scale exactly by the factor.
  std::map<std::uint32_t, int> base_counts;
  for (const auto& s : trace.sessions()) ++base_counts[s.program.value()];
  std::map<std::uint32_t, int> scaled_counts;
  for (const auto& s : scaled.sessions()) ++scaled_counts[s.program.value()];
  for (const auto& [program, count] : base_counts) {
    EXPECT_EQ(scaled_counts[program], count * 5);
  }
}

TEST(ScalePopulation, DeterministicForSeed) {
  const auto a = scale_population(base_trace(), 3, 42);
  const auto b = scale_population(base_trace(), 3, 42);
  ASSERT_EQ(a.session_count(), b.session_count());
  for (std::size_t i = 0; i < a.session_count(); ++i) {
    EXPECT_EQ(a.sessions()[i].start, b.sessions()[i].start);
    EXPECT_EQ(a.sessions()[i].user, b.sessions()[i].user);
  }
}

TEST(ScalePopulation, GeneratedTraceScalesCleanly) {
  const auto trace = trace::generate_power_info_like(test::small_workload(2));
  const auto scaled = scale_population(trace, 2);
  scaled.validate();
  EXPECT_EQ(scaled.session_count(), 2 * trace.session_count());
}

// -------------------------------------------------------------- catalog xN

TEST(ScaleCatalog, FactorOneIsIdentity) {
  const auto trace = base_trace();
  const auto scaled = scale_catalog(trace, 1);
  EXPECT_EQ(scaled.catalog().size(), trace.catalog().size());
}

TEST(ScaleCatalog, MultipliesCatalogKeepsEventCount) {
  const auto trace = base_trace();
  const auto scaled = scale_catalog(trace, 4);
  EXPECT_EQ(scaled.catalog().size(), 16u);
  EXPECT_EQ(scaled.session_count(), trace.session_count());
  scaled.validate();
}

TEST(ScaleCatalog, CopiesShareMetadata) {
  const auto trace = base_trace();
  const auto scaled = scale_catalog(trace, 3);
  const auto base = static_cast<std::uint32_t>(trace.catalog().size());
  for (std::uint32_t p = 0; p < base; ++p) {
    for (std::uint32_t k = 1; k < 3; ++k) {
      const auto copy = ProgramId{p + k * base};
      EXPECT_EQ(scaled.catalog().length(copy),
                trace.catalog().length(ProgramId{p}));
      EXPECT_EQ(scaled.catalog().introduced(copy),
                trace.catalog().introduced(ProgramId{p}));
    }
  }
}

TEST(ScaleCatalog, EventsRemapToCopiesOfSameProgram) {
  const auto trace = base_trace();
  const auto scaled = scale_catalog(trace, 5);
  const auto base = static_cast<std::uint32_t>(trace.catalog().size());
  ASSERT_EQ(scaled.session_count(), trace.session_count());
  for (std::size_t i = 0; i < trace.session_count(); ++i) {
    EXPECT_EQ(scaled.sessions()[i].program.value() % base,
              trace.sessions()[i].program.value());
    EXPECT_EQ(scaled.sessions()[i].start, trace.sessions()[i].start);
    EXPECT_EQ(scaled.sessions()[i].user, trace.sessions()[i].user);
  }
}

TEST(ScaleCatalog, SpreadsEventsAcrossCopies) {
  // With many events, each copy of a popular program should receive some.
  const auto trace = trace::generate_power_info_like(test::small_workload(3));
  const auto scaled = scale_catalog(trace, 2);
  const auto base = static_cast<std::uint32_t>(trace.catalog().size());
  std::uint64_t low_half = 0;
  std::uint64_t high_half = 0;
  for (const auto& s : scaled.sessions()) {
    (s.program.value() < base ? low_half : high_half) += 1;
  }
  const double ratio = static_cast<double>(low_half) /
                       static_cast<double>(low_half + high_half);
  EXPECT_NEAR(ratio, 0.5, 0.05);
}

TEST(ScaleCatalog, DeterministicForSeed) {
  const auto a = scale_catalog(base_trace(), 3, 7);
  const auto b = scale_catalog(base_trace(), 3, 7);
  for (std::size_t i = 0; i < a.session_count(); ++i) {
    EXPECT_EQ(a.sessions()[i].program, b.sessions()[i].program);
  }
}

TEST(ScaleBoth, ComposesPopulationAndCatalog) {
  const auto trace = base_trace();
  const auto scaled = scale_catalog(scale_population(trace, 2), 3);
  EXPECT_EQ(scaled.user_count(), 8u);
  EXPECT_EQ(scaled.catalog().size(), 12u);
  EXPECT_EQ(scaled.session_count(), 10u);
  scaled.validate();
}

}  // namespace
}  // namespace vodcache::trace
