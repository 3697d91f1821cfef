// Integration and property tests across the whole stack: invariants that
// must hold for every strategy and workload, plus the qualitative results
// the paper's evaluation rests on, checked on scaled-down workloads.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "analysis/load_analysis.hpp"
// (demand_meter is used for horizon-clipped demand comparisons)
#include "core/vod_system.hpp"
#include "test_support.hpp"
#include "trace/generator.hpp"
#include "trace/scaler.hpp"

namespace vodcache::core {
namespace {

SystemConfig base_config(StrategyKind kind, std::uint32_t neighborhood_size,
                         std::int64_t per_peer_mb) {
  SystemConfig config;
  config.neighborhood_size = neighborhood_size;
  config.per_peer_storage = DataSize::megabytes(per_peer_mb);
  config.strategy.kind = kind;
  config.strategy.lfu_history = sim::SimTime::hours(24);
  config.warmup = sim::SimTime::days(1);
  return config;
}

SimulationReport run(const trace::Trace& trace, const SystemConfig& config) {
  VodSystem system(trace, config);
  return system.run();
}

// ------------------------------------------- invariants for all strategies

class EveryStrategy : public ::testing::TestWithParam<StrategyKind> {};

INSTANTIATE_TEST_SUITE_P(Strategies, EveryStrategy,
                         ::testing::Values(StrategyKind::None,
                                           StrategyKind::Lru,
                                           StrategyKind::Lfu,
                                           StrategyKind::Oracle,
                                           StrategyKind::GlobalLfu),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST_P(EveryStrategy, ConservationAndAccounting) {
  const auto trace =
      trace::generate_power_info_like(test::small_workload(3));
  const auto report = run(trace, base_config(GetParam(), 50, 500));

  // Every byte on the coax came from the server or a peer.
  EXPECT_NEAR(report.coax_bits, report.server_bits + report.peer_bits,
              report.coax_bits * 1e-9 + 1.0);
  // Every segment request was served exactly once.
  EXPECT_EQ(report.segments,
            report.hits + report.cold_misses + report.busy_misses);
  // All sessions replayed.
  EXPECT_EQ(report.sessions, trace.session_count());
  // Coax traffic equals total demand (broadcast carries each stream once).
  // Both sides metered over the same horizon so clipping is identical.
  const double demand =
      analysis::demand_meter(trace, DataRate::megabits_per_second(8.06))
          .total_bits();
  EXPECT_NEAR(report.coax_bits, demand, demand * 1e-6);
}

TEST_P(EveryStrategy, CacheNeverExceedsCapacity) {
  const auto trace =
      trace::generate_power_info_like(test::small_workload(3));
  const auto config = base_config(GetParam(), 40, 400);
  const auto report = run(trace, config);
  for (const auto& n : report.neighborhoods) {
    EXPECT_LE(n.cache_used, n.cache_capacity);
    EXPECT_EQ(n.cache_capacity,
              config.per_peer_storage * n.peer_count);
  }
}

TEST_P(EveryStrategy, ServerLoadNeverExceedsDemand) {
  const auto trace =
      trace::generate_power_info_like(test::small_workload(3));
  const auto report = run(trace, base_config(GetParam(), 50, 500));
  const double demand =
      static_cast<double>(test::total_demand(trace, DataRate::megabits_per_second(8.06))
                              .bit_count());
  EXPECT_LE(report.server_bits, demand * (1.0 + 1e-9));
}

TEST_P(EveryStrategy, DeterministicEndToEnd) {
  const auto trace =
      trace::generate_power_info_like(test::small_workload(2));
  const auto config = base_config(GetParam(), 50, 300);
  const auto a = run(trace, config);
  const auto b = run(trace, config);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.cold_misses, b.cold_misses);
  EXPECT_EQ(a.busy_misses, b.busy_misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_DOUBLE_EQ(a.server_bits, b.server_bits);
}

// ----------------------------------------------- qualitative paper results

// Shared medium workload for the comparative tests (generated once).
const trace::Trace& medium_trace() {
  static const trace::Trace trace = [] {
    auto config = test::small_workload(6, 2024);
    config.user_count = 600;
    config.program_count = 150;
    config.sessions_per_user_per_day = 5.0;
    return trace::generate_power_info_like(config);
  }();
  return trace;
}

TEST(PaperProperties, CachingReducesServerLoad) {
  // ~200 GB per 100-peer neighborhood vs a ~465 GB catalog.
  const auto none = run(medium_trace(), base_config(StrategyKind::None, 100, 0));
  const auto lfu =
      run(medium_trace(), base_config(StrategyKind::Lfu, 100, 2000));
  EXPECT_LT(lfu.server_bits, 0.9 * none.server_bits);
  EXPECT_LT(lfu.server_peak.mean.bps(), none.server_peak.mean.bps());
}

TEST(PaperProperties, BiggerCacheNeverWorse) {
  // Figure 8's monotone trend.
  const auto small = run(medium_trace(), base_config(StrategyKind::Lfu, 100, 500));
  const auto medium = run(medium_trace(), base_config(StrategyKind::Lfu, 100, 2000));
  const auto large = run(medium_trace(), base_config(StrategyKind::Lfu, 100, 8000));
  EXPECT_LE(medium.server_bits, small.server_bits * 1.02);
  EXPECT_LE(large.server_bits, medium.server_bits * 1.02);
}

TEST(PaperProperties, OracleBeatsRealizableStrategies) {
  // Figure 8: the oracle is the lower envelope.
  const auto config_size = 1000;  // MB/peer; small enough to force choice
  const auto lru = run(medium_trace(),
                       base_config(StrategyKind::Lru, 100, config_size));
  const auto lfu = run(medium_trace(),
                       base_config(StrategyKind::Lfu, 100, config_size));
  const auto oracle = run(medium_trace(),
                          base_config(StrategyKind::Oracle, 100, config_size));
  EXPECT_LE(oracle.server_bits, lfu.server_bits * 1.02);
  EXPECT_LE(oracle.server_bits, lru.server_bits * 1.02);
}

TEST(PaperProperties, LfuAtLeastAsGoodAsLru) {
  // Section VI-A: "the LFU algorithm performs the same, if not better than,
  // the LRU algorithm in all cases."  Allow a small tolerance: the claim is
  // statistical, not per-sample.
  const auto lru = run(medium_trace(), base_config(StrategyKind::Lru, 100, 1000));
  const auto lfu = run(medium_trace(), base_config(StrategyKind::Lfu, 100, 1000));
  EXPECT_LE(lfu.server_bits, lru.server_bits * 1.05);
}

TEST(PaperProperties, GlobalLfuAtLeastAsGoodAsLocalLfu) {
  // Figure 13: global popularity data helps, a little.
  const auto local = run(medium_trace(), base_config(StrategyKind::Lfu, 60, 1000));
  auto global_config = base_config(StrategyKind::GlobalLfu, 60, 1000);
  const auto global = run(medium_trace(), global_config);
  EXPECT_LE(global.server_bits, local.server_bits * 1.05);
}

TEST(PaperProperties, CoaxTrafficScalesWithNeighborhoodSize) {
  // Figure 14: linear growth of coax traffic with neighborhood size.
  const auto small = run(medium_trace(), base_config(StrategyKind::Lfu, 100, 200));
  const auto large = run(medium_trace(), base_config(StrategyKind::Lfu, 300, 200));
  ASSERT_GT(small.coax_peak_pooled.mean.bps(), 0.0);
  const double ratio = large.coax_peak_pooled.mean.bps() /
                       small.coax_peak_pooled.mean.bps();
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.5);
}

TEST(PaperProperties, PopulationScalingIsLinear) {
  // Figure 16(b): doubling the population roughly doubles the server load;
  // the percentage saving stays fixed.
  const auto trace1 = medium_trace();
  const auto trace2 = test::scale_population(trace1, 2);
  const auto config = base_config(StrategyKind::Lfu, 100, 200);
  const auto r1 = run(trace1, config);
  const auto r2 = run(trace2, config);
  const double ratio = r2.server_bits / r1.server_bits;
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.4);
}

TEST(PaperProperties, CatalogScalingDegradesCache) {
  // Figure 16(c): a bigger catalog dilutes the cache.
  const auto trace1 = medium_trace();
  const auto trace3 = test::scale_catalog(trace1, 3);
  const auto config = base_config(StrategyKind::Lfu, 100, 2000);
  const auto r1 = run(trace1, config);
  const auto r3 = run(trace3, config);
  EXPECT_GT(r3.server_bits, r1.server_bits);
  // But demand is unchanged: degradation only, no amplification.
  EXPECT_LE(r3.server_bits,
            static_cast<double>(
                test::total_demand(trace1, DataRate::megabits_per_second(8.06))
                    .bit_count()) *
                (1.0 + 1e-9));
}

TEST(PaperProperties, BusyMissesAppearUnderContention) {
  // With tiny neighborhoods every hit funnels through few peers: the
  // 2-stream limit must produce busy misses under concurrency.
  auto config = base_config(StrategyKind::Lfu, 10, 2000);
  const auto report = run(medium_trace(), config);
  EXPECT_GT(report.busy_misses, 0u);
}

TEST(PaperProperties, WarmupExclusionDropsEarlySamples) {
  // Tiny test systems converge within hours, so the warmed/unwarmed *means*
  // differ only by day-to-day demand noise; what must hold exactly is the
  // mechanism: the warmed run reports a later measurement start and fewer
  // peak-window samples (cache behaviour itself is identical).
  auto with_warmup = base_config(StrategyKind::Lfu, 100, 2000);
  auto without = with_warmup;
  without.warmup = sim::SimTime{};
  const auto a = run(medium_trace(), with_warmup);
  const auto b = run(medium_trace(), without);
  EXPECT_EQ(a.measured_from, sim::SimTime::days(1));
  EXPECT_EQ(b.measured_from, sim::SimTime{});
  EXPECT_LT(a.server_peak.sample_count, b.server_peak.sample_count);
  EXPECT_EQ(a.server_bits, b.server_bits);
  EXPECT_EQ(a.hits, b.hits);
}

// ------------------------------------------------------- parameter sweeps

struct SweepCase {
  std::uint32_t neighborhood;
  std::int64_t per_peer_mb;
};

// gtest would otherwise print the raw bytes, including 4 bytes of
// uninitialized padding: the listed test names would change from run to
// run.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "n" << c.neighborhood << "_mb" << c.per_peer_mb;
}

class CacheSizeSweep : public ::testing::TestWithParam<SweepCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sizes, CacheSizeSweep,
    ::testing::Values(SweepCase{25, 100}, SweepCase{25, 400},
                      SweepCase{50, 100}, SweepCase{50, 400},
                      SweepCase{100, 100}, SweepCase{100, 400},
                      SweepCase{200, 400}),
    [](const auto& info) {
      // std::string("n") rather than "n" + rvalue: GCC 12's -Wrestrict
      // false positive (PR105329) fires on the const char* + string&&
      // overload at -O2+ (same workaround as bench_fig15).
      return std::string("n") + std::to_string(info.param.neighborhood) +
             "_mb" + std::to_string(info.param.per_peer_mb);
    });

TEST_P(CacheSizeSweep, InvariantsHoldAcrossTopologies) {
  const auto& param = GetParam();
  const auto report =
      run(medium_trace(),
          base_config(StrategyKind::Lfu, param.neighborhood, param.per_peer_mb));
  EXPECT_EQ(report.segments,
            report.hits + report.cold_misses + report.busy_misses);
  EXPECT_NEAR(report.coax_bits, report.server_bits + report.peer_bits,
              report.coax_bits * 1e-9 + 1.0);
  for (const auto& n : report.neighborhoods) {
    EXPECT_LE(n.cache_used, n.cache_capacity);
  }
  // Neighborhood session counts sum to the trace.
  std::uint64_t sessions = 0;
  for (const auto& n : report.neighborhoods) sessions += n.sessions;
  EXPECT_EQ(sessions, medium_trace().session_count());
}

}  // namespace
}  // namespace vodcache::core
