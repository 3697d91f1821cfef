// Tests for the analysis module: ECDFs, program-length estimation (the
// paper's figure 6 methodology), popularity skew/decay, demand profiles,
// and table rendering.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/ecdf.hpp"
#include "analysis/load_analysis.hpp"
#include "analysis/popularity_analysis.hpp"
#include "analysis/session_analysis.hpp"
#include "analysis/table.hpp"
#include "test_support.hpp"

namespace vodcache::analysis {
namespace {

using test::make_trace;
using test::uniform_catalog;

// -------------------------------------------------------------------- Ecdf

TEST(Ecdf, AtComputesFraction) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const Ecdf ecdf(xs);
  EXPECT_DOUBLE_EQ(ecdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.at(3.0), 0.6);
  EXPECT_DOUBLE_EQ(ecdf.at(5.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.at(100.0), 1.0);
}

TEST(Ecdf, QuantileInverseOfAt) {
  const std::vector<double> xs{10, 20, 30, 40};
  const Ecdf ecdf(xs);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.25), 10.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.0), 10.0);
}

TEST(Ecdf, MinMax) {
  const std::vector<double> xs{7, 3, 9};
  const Ecdf ecdf(xs);
  EXPECT_DOUBLE_EQ(ecdf.min(), 3.0);
  EXPECT_DOUBLE_EQ(ecdf.max(), 9.0);
}

TEST(Ecdf, EmptyBehaves) {
  const Ecdf ecdf;
  EXPECT_TRUE(ecdf.empty());
  EXPECT_DOUBLE_EQ(ecdf.at(1.0), 0.0);
}

TEST(Ecdf, JumpsFindPointMasses) {
  std::vector<double> xs;
  for (int i = 0; i < 80; ++i) xs.push_back(i * 0.9);  // continuous-ish
  for (int i = 0; i < 20; ++i) xs.push_back(60.0);     // 20% spike at 60
  const Ecdf ecdf(xs);
  const auto jumps = ecdf.jumps(0.05);
  ASSERT_EQ(jumps.size(), 1u);
  EXPECT_DOUBLE_EQ(jumps[0].value, 60.0);
  EXPECT_DOUBLE_EQ(jumps[0].mass, 0.2);
}

TEST(Ecdf, JumpsAscendingOrder) {
  std::vector<double> xs(10, 5.0);
  xs.insert(xs.end(), 10, 2.0);
  const Ecdf ecdf(xs);
  const auto jumps = ecdf.jumps(0.1);
  ASSERT_EQ(jumps.size(), 2u);
  EXPECT_LT(jumps[0].value, jumps[1].value);
}

// ------------------------------------------------- program length (fig 6)

TEST(ProgramLength, RecoversTruncationSpike) {
  // Synthetic sessions: early quits uniform below 3600, 15% completions.
  std::vector<double> lengths;
  for (int i = 0; i < 850; ++i) lengths.push_back(10.0 + (i % 617) * 5.0);
  for (int i = 0; i < 150; ++i) lengths.push_back(3600.0);
  const auto estimate = estimate_program_length(Ecdf(lengths), 0.02);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_DOUBLE_EQ(estimate->seconds, 3600.0);
  EXPECT_NEAR(estimate->completion, 0.15, 1e-9);
}

TEST(ProgramLength, NoSpikeNoEstimate) {
  std::vector<double> lengths;
  for (int i = 0; i < 1000; ++i) lengths.push_back(10.0 + i * 3.1);
  EXPECT_EQ(estimate_program_length(Ecdf(lengths), 0.02), std::nullopt);
}

TEST(ProgramLength, PicksLastSpikeNotEarlyRoundNumbers) {
  // A pile-up at 60s (UI minimum) must not be confused with the
  // completion spike at 1800s.
  std::vector<double> lengths;
  for (int i = 0; i < 300; ++i) lengths.push_back(60.0);
  for (int i = 0; i < 500; ++i) lengths.push_back(80.0 + i * 2.9);
  for (int i = 0; i < 200; ++i) lengths.push_back(1800.0);
  const auto estimate = estimate_program_length(Ecdf(lengths), 0.05);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_DOUBLE_EQ(estimate->seconds, 1800.0);
}

TEST(ProgramLength, WorksOnGeneratedTrace) {
  // The generator's ground truth validates the paper's methodology: the
  // estimator must recover the true length of a popular program.
  const auto trace =
      trace::generate_power_info_like(test::small_workload(4));
  const auto ranking = rank_by_sessions(trace);
  const auto top = ranking.front().program;
  const auto estimate = estimate_program_length(trace, top, 0.02);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_DOUBLE_EQ(estimate->seconds,
                   trace.catalog().length(top).seconds_f());
}

TEST(SessionAnalysis, LengthsForProgramFiltered) {
  const auto trace = make_trace(uniform_catalog(2),
                                {{0, 0, 0, 100}, {10, 0, 1, 200}, {20, 0, 0, 300}},
                                /*user_count=*/1);
  const auto lengths = session_lengths_seconds(trace, ProgramId{0});
  ASSERT_EQ(lengths.size(), 2u);
  EXPECT_DOUBLE_EQ(lengths[0], 100.0);
  EXPECT_DOUBLE_EQ(lengths[1], 300.0);
  EXPECT_EQ(all_session_lengths_seconds(trace).size(), 3u);
}

// -------------------------------------------------- popularity (fig 2/12)

TEST(Popularity, RankBySessionsDescending) {
  const auto trace = make_trace(
      uniform_catalog(3),
      {{0, 0, 1, 60}, {10, 0, 1, 60}, {20, 0, 1, 60}, {30, 0, 0, 60},
       {40, 0, 0, 60}, {50, 0, 2, 60}},
      /*user_count=*/1);
  const auto ranking = rank_by_sessions(trace);
  EXPECT_EQ(ranking[0].program, ProgramId{1});
  EXPECT_EQ(ranking[0].sessions, 3u);
  EXPECT_EQ(ranking[1].program, ProgramId{0});
  EXPECT_EQ(ranking[2].program, ProgramId{2});
}

TEST(Popularity, QuantileProgramSelection) {
  std::vector<RankedProgram> ranking;
  for (std::uint32_t i = 0; i < 100; ++i) {
    ranking.push_back({ProgramId{i}, 1000 - i});
  }
  EXPECT_EQ(quantile_program(ranking, 1.0), ProgramId{0});
  EXPECT_EQ(quantile_program(ranking, 0.99), ProgramId{1});
  EXPECT_EQ(quantile_program(ranking, 0.95), ProgramId{5});
  EXPECT_EQ(quantile_program(ranking, 0.0), ProgramId{99});
}

TEST(Popularity, SessionsPerWindowCounts) {
  const auto trace = make_trace(
      uniform_catalog(2),
      {{60, 0, 0, 30}, {120, 0, 0, 30}, {1000, 0, 0, 30}, {70, 0, 1, 30}},
      /*user_count=*/1);
  const auto counts = sessions_per_window(
      trace, ProgramId{0}, sim::SimTime{}, sim::SimTime::minutes(30),
      sim::SimTime::minutes(15));
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 2u);  // t=60 and t=120
  EXPECT_EQ(counts[1], 1u);  // t=1000
}

TEST(Popularity, ByAgeAveragesOverPrograms) {
  // Two programs introduced on day 1, all sessions on their first two days.
  std::vector<trace::ProgramInfo> programs(2);
  for (auto& p : programs) {
    p.length = sim::SimTime::minutes(30);
    p.introduced = sim::SimTime::days(1);
    p.base_weight = 1.0;
  }
  std::vector<test::SessionSpec> specs;
  const std::int64_t day = 86'400;
  for (int i = 0; i < 60; ++i) specs.push_back({day + i * 60, 0, 0, 30});
  for (int i = 0; i < 40; ++i) specs.push_back({2 * day + i * 60, 0, 0, 30});
  for (int i = 0; i < 20; ++i) specs.push_back({day + i * 60, 0, 1, 30});
  const auto trace = make_trace(trace::Catalog(std::move(programs)), specs,
                                /*user_count=*/1, /*horizon_days=*/10);

  const auto decay = popularity_by_age(trace, 3, /*min_sessions=*/10);
  ASSERT_EQ(decay.size(), 3u);
  EXPECT_DOUBLE_EQ(decay[0], (60 + 20) / 2.0);
  EXPECT_DOUBLE_EQ(decay[1], 40 / 2.0);
  EXPECT_DOUBLE_EQ(decay[2], 0.0);
}

TEST(Popularity, ByAgeExcludesBackCatalogAndCensored) {
  std::vector<trace::ProgramInfo> programs(2);
  programs[0] = {sim::SimTime::minutes(30), sim::SimTime::days(-5), 1.0};
  // Introduced too close to the horizon: right-censored, must be excluded.
  programs[1] = {sim::SimTime::minutes(30), sim::SimTime::days(9), 1.0};
  std::vector<test::SessionSpec> specs;
  for (int i = 0; i < 50; ++i) specs.push_back({100 + i, 0, 0, 30});
  for (int i = 0; i < 50; ++i) specs.push_back({86'400 * 9 + i, 0, 1, 30});
  const auto trace = make_trace(trace::Catalog(std::move(programs)), specs,
                                /*user_count=*/1, /*horizon_days=*/10);
  const auto decay = popularity_by_age(trace, 3, 10);
  for (const double v : decay) EXPECT_DOUBLE_EQ(v, 0.0);
}

// ------------------------------------------------------- load (fig 7)

TEST(Load, DemandMeterTotalsMatch) {
  const auto trace = make_trace(uniform_catalog(1),
                                {{0, 0, 0, 600}, {86'000, 0, 0, 300}},
                                /*user_count=*/1);
  const auto meter = demand_meter(trace, DataRate::megabits_per_second(8.0));
  EXPECT_NEAR(meter.total_bits(), 8e6 * 900, 1.0);
}

TEST(Load, HourlyProfilePlacesSessionsInHour) {
  const auto trace = make_trace(
      uniform_catalog(1, 60),
      {{19 * 3600, 0, 0, 3600}},  // one 1-hour stream at 19:00
      /*user_count=*/1);
  const auto profile =
      demand_hourly_profile(trace, DataRate::megabits_per_second(8.0));
  EXPECT_DOUBLE_EQ(profile[19].mbps(), 8.0);
  EXPECT_DOUBLE_EQ(profile[18].mbps(), 0.0);
  EXPECT_DOUBLE_EQ(profile[20].mbps(), 0.0);
}

TEST(Load, DemandPeakUsesWindow) {
  const auto trace = make_trace(
      uniform_catalog(1, 60),
      {{20 * 3600, 0, 0, 3600}, {3 * 3600, 0, 0, 3600}},
      /*user_count=*/1);
  const auto peak = demand_peak(trace, DataRate::megabits_per_second(8.0),
                                sim::HourWindow{19, 22});
  // Only the evening session is inside the window: 1h of 8 Mb/s across the
  // 3-hour window -> mean 8/3 Mb/s.
  EXPECT_NEAR(peak.mean.mbps(), 8.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(peak.max.mbps(), 8.0);
}

// ------------------------------------------------------------------- Table

TEST(Table, AlignedRendering) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  std::ostringstream out;
  table.print(out);
  const auto text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(17.0, 1), "17.0");
  EXPECT_EQ(Table::num(2.107, 3), "2.107");
}

TEST(Table, RowWidthMismatchDies) {
  Table table({"a", "b"});
  EXPECT_DEATH(table.add_row({"only-one"}), "precondition");
}

}  // namespace
}  // namespace vodcache::analysis
