// Failure injection: peers losing their disk contents mid-run.  The paper
// assumes always-on set-top boxes with zero churn (section IV-B.3); these
// tests exercise the extension that breaks that assumption and check that
// the cooperative cache degrades gracefully and self-heals.
#include <gtest/gtest.h>

#include <memory>

#include "cache/cache_cell.hpp"
#include "cache/lru.hpp"
#include "cache/segment_store.hpp"
#include "core/vod_system.hpp"
#include "test_support.hpp"
#include "trace/generator.hpp"

namespace vodcache::core {
namespace {

// A full segment at 8 Mb/s.
constexpr auto kSeg = DataSize::megabytes(300);
const auto k8Mbps = DataRate::megabits_per_second(8.0);

// ------------------------------------------------------- SegmentStore wipe

TEST(WipePeer, RemovesOnlyThatPeersReplicas) {
  const auto catalog = test::uniform_catalog(3, 5);
  cache::SegmentStore store(3, DataSize::gigabytes(1), catalog, k8Mbps);
  // Two replicas of one segment on distinct peers + one other segment.
  const auto first = store.store({ProgramId{1}, 0});
  const auto second = store.store({ProgramId{1}, 0});
  const auto other = store.store({ProgramId{2}, 0});
  ASSERT_TRUE(first && second && other);

  const auto wiped = store.wipe_peer(*first);
  EXPECT_GE(wiped.freed, kSeg);
  // The second replica survives, so program 1 is still locatable.
  ASSERT_EQ(store.locate({ProgramId{1}, 0}).size(), 1u);
  EXPECT_EQ(store.locate({ProgramId{1}, 0})[0], *second);
  EXPECT_EQ(store.peer_used(*first), DataSize{});
}

TEST(WipePeer, ReportsEmptiedPrograms) {
  const auto catalog = test::uniform_catalog(6, 10);  // two segments
  cache::SegmentStore store(1, DataSize::gigabytes(1), catalog, k8Mbps);
  ASSERT_TRUE(store.store({ProgramId{5}, 0}));
  ASSERT_TRUE(store.store({ProgramId{5}, 1}));
  const auto wiped = store.wipe_peer(PeerId{0});
  ASSERT_EQ(wiped.emptied_programs.size(), 1u);
  EXPECT_EQ(wiped.emptied_programs[0], ProgramId{5});
  EXPECT_TRUE(store.locate({ProgramId{5}, 0}).empty());
  EXPECT_TRUE(store.locate({ProgramId{5}, 1}).empty());
  EXPECT_EQ(store.used(), DataSize{});
}

// Admits the first request and refuses every later one; counts them all.
class AdmitOnce final : public cache::AdmissionPolicy {
 public:
  explicit AdmitOnce(int& asked) : asked_(asked) {}
  [[nodiscard]] bool admit(const cache::AdmissionRequest&) override {
    return ++asked_ == 1;
  }

 private:
  int& asked_;
};

// A whole-program admission outlives the wipe of its segments: the cell
// refills the program on the next full-slice miss, and neither that fill
// nor a later session asks the admission policy again.
TEST(WipePeer, CommitmentsSurvive) {
  const auto catalog = test::uniform_catalog(1, 10);  // two segments
  cache::CacheCell::Settings settings;
  settings.stream_rate = k8Mbps;
  settings.per_peer_storage = DataSize::gigabytes(1);
  const sim::RateMeter coax(sim::SimTime::days(1));
  cache::AccessHistory history;
  int asked = 0;
  cache::CacheCell cell({"LRU", "once",
                         std::make_unique<cache::LruStrategy>(history),
                         std::make_unique<AdmitOnce>(asked)},
                        settings, /*peer_count=*/1, &coax, catalog);
  const ProgramId program{0};
  const auto at = [](std::int64_t s) { return sim::SimTime::seconds(s); };

  history.record(program, at(0));
  const bool admit = cell.start_session(program, at(0));
  ASSERT_TRUE(admit);
  EXPECT_EQ(cell.serve_segment({program, 0}, {at(0), at(300)}, admit, true),
            ServeResult::MissCold);
  ASSERT_EQ(cell.store().locate({program, 0}).size(), 1u);

  const auto wiped = cell.fail_peer(PeerId{0});
  EXPECT_EQ(wiped.freed, kSeg);
  EXPECT_TRUE(cell.store().locate({program, 0}).empty());
  EXPECT_TRUE(cell.scorer()->is_cached(program));  // still admitted

  // The freed space is reused by the next full-slice miss.
  EXPECT_EQ(cell.serve_segment({program, 0}, {at(300), at(600)}, admit, true),
            ServeResult::MissCold);
  EXPECT_EQ(cell.store().locate({program, 0}).size(), 1u);
  EXPECT_EQ(cell.counters().fills, 2u);
  history.record(program, at(600));
  EXPECT_TRUE(cell.start_session(program, at(600)));
  EXPECT_EQ(asked, 1);
  EXPECT_EQ(cell.counters().admission_denials, 0u);
}

TEST(WipePeer, EmptyPeerIsNoOp) {
  const auto catalog = test::uniform_catalog(1, 5);
  cache::SegmentStore store(2, DataSize::gigabytes(1), catalog, k8Mbps);
  const auto wiped = store.wipe_peer(PeerId{1});
  EXPECT_EQ(wiped.freed, DataSize{});
  EXPECT_TRUE(wiped.emptied_programs.empty());
}

// --------------------------------------------------------- end-to-end runs

SystemConfig failing_config(double fraction, std::int64_t at_hours) {
  SystemConfig config;
  config.neighborhood_size = 50;
  config.per_peer_storage = DataSize::megabytes(800);
  config.strategy.kind = StrategyKind::Lfu;
  config.warmup = sim::SimTime{};
  config.peer_failures.push_back(
      {sim::SimTime::hours(at_hours), fraction, /*seed=*/7});
  return config;
}

TEST(FailureInjection, InvariantsSurviveMassFailure) {
  const auto workload = test::small_workload(3);
  const auto trace = trace::generate_power_info_like(workload);
  const auto config = failing_config(0.5, 30);
  SCOPED_TRACE(test::repro_line(workload, config));
  VodSystem system(trace, config);
  const auto report = system.run();

  EXPECT_GT(report.peer_failures, 0u);
  EXPECT_GT(report.wiped_bytes, 0.0);
  // Conservation and accounting hold through the failure.
  EXPECT_EQ(report.segments,
            report.hits + report.cold_misses + report.busy_misses);
  EXPECT_NEAR(report.coax_bits, report.server_bits + report.peer_bits,
              report.coax_bits * 1e-9 + 1.0);
  for (const auto& n : report.neighborhoods) {
    EXPECT_LE(n.cache_used, n.cache_capacity);
  }
}

TEST(FailureInjection, FailuresCostServerTraffic) {
  const auto workload = test::small_workload(3);
  const auto trace = trace::generate_power_info_like(workload);
  auto healthy = failing_config(0.0, 30);
  healthy.peer_failures.clear();
  const auto failing = failing_config(0.6, 30);
  SCOPED_TRACE(test::repro_line(workload, healthy));
  SCOPED_TRACE(test::repro_line(workload, failing));
  const auto baseline = VodSystem(trace, healthy).run();
  const auto failed = VodSystem(trace, failing).run();
  // Losing 60% of disks mid-run must push more traffic to the server.
  EXPECT_GT(failed.server_bits, baseline.server_bits);
  EXPECT_LT(failed.hits, baseline.hits);
}

TEST(FailureInjection, CacheSelfHeals) {
  // After the wipe, admitted programs re-fill from miss broadcasts: by the
  // end of the run the cache is populated again.
  const auto workload = test::small_workload(4);
  const auto trace = trace::generate_power_info_like(workload);
  const auto config = failing_config(1.0, 48);
  SCOPED_TRACE(test::repro_line(workload, config));
  const auto report = VodSystem(trace, config).run();
  DataSize used;
  for (const auto& n : report.neighborhoods) used += n.cache_used;
  EXPECT_GT(used, DataSize{});
  EXPECT_GT(report.fills, 0u);
}

TEST(FailureInjection, RewatchAfterFullWipeMissesAgain) {
  // Hand-crafted: one program, one neighborhood.  The first viewing caches
  // both segments; a full wipe between viewings forces the second viewing
  // back to the central server, which re-fills the cache off the wire.
  const auto trace = test::make_trace(
      test::uniform_catalog(1, 10),
      {{0, 0, 0, 600}, {10'000, 1, 0, 600}}, /*user_count=*/2);
  SystemConfig config;
  config.neighborhood_size = 2;
  config.per_peer_storage = DataSize::gigabytes(1);
  config.stream_rate = DataRate::megabits_per_second(8.0);
  config.warmup = sim::SimTime{};
  config.strategy.kind = StrategyKind::Lru;
  config.peer_failures.push_back({sim::SimTime::seconds(5000), 1.0, 1});

  const auto report = VodSystem(trace, config).run();
  EXPECT_EQ(report.peer_failures, 2u);
  EXPECT_EQ(report.cold_misses, 4u);  // both viewings served by the server
  EXPECT_EQ(report.hits, 0u);
  EXPECT_EQ(report.fills, 4u);  // the cache re-filled after the wipe
  EXPECT_NEAR(report.wiped_bytes, 2 * 300e6, 1.0);
}

TEST(FailureInjection, DeterministicForSeed) {
  const auto workload = test::small_workload(2);
  const auto trace = trace::generate_power_info_like(workload);
  const auto config = failing_config(0.3, 24);
  SCOPED_TRACE(test::repro_line(workload, config));
  const auto a = VodSystem(trace, config).run();
  const auto b = VodSystem(trace, config).run();
  EXPECT_EQ(a.peer_failures, b.peer_failures);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_DOUBLE_EQ(a.server_bits, b.server_bits);
}

TEST(FailureInjection, MultipleWaves) {
  const auto workload = test::small_workload(3);
  const auto trace = trace::generate_power_info_like(workload);
  auto config = failing_config(0.2, 20);
  config.peer_failures.push_back({sim::SimTime::hours(40), 0.2, 8});
  config.peer_failures.push_back({sim::SimTime::hours(60), 0.2, 9});
  SCOPED_TRACE(test::repro_line(workload, config));
  const auto report = VodSystem(trace, config).run();
  // Three waves over 300 peers at ~20% each.
  EXPECT_GT(report.peer_failures, 100u);
  EXPECT_LT(report.peer_failures, 260u);
}

}  // namespace
}  // namespace vodcache::core
