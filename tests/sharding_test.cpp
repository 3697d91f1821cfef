// Sharded-execution determinism: the whole point of the per-neighborhood
// shard architecture is that the thread count is invisible in the results.
// These tests pin the strongest form of that claim — the serialized report
// (full JSON, every neighborhood, every floating-point field) is
// byte-identical across worker-pool sizes — for every strategy, and check
// the cross-shard couplings that had to be decoupled to get there
// (central-server metering, global popularity, failure waves).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <utility>

#include "core/report_json.hpp"
#include "core/vod_system.hpp"
#include "scenario/adaptors.hpp"
#include "scenario/scenario.hpp"
#include "test_support.hpp"
#include "trace/generator.hpp"

namespace vodcache::core {
namespace {

SystemConfig sharding_config(StrategyKind kind) {
  SystemConfig config;
  config.neighborhood_size = 40;  // 300 users -> 8 shards
  config.per_peer_storage = DataSize::megabytes(400);
  config.strategy.kind = kind;
  config.strategy.lfu_history = sim::SimTime::hours(24);
  config.warmup = sim::SimTime::days(1);
  return config;
}

trace::GeneratorConfig sharding_workload() {
  auto workload = test::small_workload(3, 777);
  workload.user_count = 300;
  workload.program_count = 80;
  workload.sessions_per_user_per_day = 6.0;
  return workload;
}

const trace::Trace& sharding_trace() {
  static const trace::Trace trace =
      trace::generate_power_info_like(sharding_workload());
  return trace;
}

std::string run_json(const trace::Trace& trace, SystemConfig config,
                     std::uint32_t threads) {
  config.threads = threads;
  VodSystem system(trace, config);
  return to_json(system.run(), /*include_neighborhoods=*/true);
}

struct StrategyCase {
  StrategyKind kind;
  std::int64_t lag_minutes;
  const char* name;
};

// Without this, gtest lists the parameter as its raw bytes, which end in
// the address of `name`: the listed test name would change per build.
void PrintTo(const StrategyCase& c, std::ostream* os) { *os << c.name; }

class ThreadCountInvariance : public ::testing::TestWithParam<StrategyCase> {};

INSTANTIATE_TEST_SUITE_P(
    Strategies, ThreadCountInvariance,
    ::testing::Values(StrategyCase{StrategyKind::Lru, 0, "Lru"},
                      StrategyCase{StrategyKind::Lfu, 0, "Lfu"},
                      StrategyCase{StrategyKind::Oracle, 0, "Oracle"},
                      StrategyCase{StrategyKind::GlobalLfu, 0, "GlobalLfu"},
                      StrategyCase{StrategyKind::GlobalLfu, 30,
                                   "GlobalLfuLagged"},
                      StrategyCase{StrategyKind::GreedyDual, 0, "GreedyDual"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(ThreadCountInvariance, ReportBytesIdenticalAcrossThreadCounts) {
  auto config = sharding_config(GetParam().kind);
  config.strategy.global_lag = sim::SimTime::minutes(GetParam().lag_minutes);

  const auto serial = run_json(sharding_trace(), config, 1);
  EXPECT_EQ(serial, run_json(sharding_trace(), config, 2));
  EXPECT_EQ(serial, run_json(sharding_trace(), config, 8));
  EXPECT_EQ(serial, run_json(sharding_trace(), config, 16));
}

TEST(ThreadCountInvarianceExtras, SegmentAdmissionWithReplication) {
  auto config = sharding_config(StrategyKind::Lfu);
  config.admission = CacheAdmission::Segment;
  config.replicate_on_busy = true;
  const auto serial = run_json(sharding_trace(), config, 1);
  EXPECT_EQ(serial, run_json(sharding_trace(), config, 8));
}

// Admission policies are per-shard state fed by per-shard signals (the
// shard's own sessions, the shard's own coax meter), so they must be as
// thread-invisible as the scorers.
TEST(ThreadCountInvarianceExtras, SecondHitAdmission) {
  auto config = sharding_config(StrategyKind::Lfu);
  config.admission_policy.kind = AdmissionKind::SecondHit;
  config.admission_policy.probation_window = sim::SimTime::hours(12);
  const auto serial = run_json(sharding_trace(), config, 1);
  EXPECT_EQ(serial, run_json(sharding_trace(), config, 8));
}

TEST(ThreadCountInvarianceExtras, CoaxHeadroomAdmission) {
  auto config = sharding_config(StrategyKind::GreedyDual);
  config.admission_policy.kind = AdmissionKind::CoaxHeadroom;
  // Tight band so the gate actually fires during the run.
  config.coax.downstream_low = DataRate::megabits_per_second(40);
  config.coax.tv_broadcast = DataRate::megabits_per_second(3);
  config.admission_policy.headroom_fraction = 0.1;
  const auto serial = run_json(sharding_trace(), config, 1);
  EXPECT_EQ(serial, run_json(sharding_trace(), config, 2));
  EXPECT_EQ(serial, run_json(sharding_trace(), config, 8));
}

TEST(ThreadCountInvarianceExtras, MoreThreadsThanShards) {
  auto config = sharding_config(StrategyKind::Lfu);
  config.neighborhood_size = 200;  // 2 shards, 8 workers
  const auto serial = run_json(sharding_trace(), config, 1);
  EXPECT_EQ(serial, run_json(sharding_trace(), config, 8));
}

// Oversubscription well past shards x 2: with only 2 shards the executor's
// spare workers mostly steal and starve — the report still cannot tell.
TEST(ThreadCountInvarianceExtras, OversubscribedWorkerPool) {
  auto config = sharding_config(StrategyKind::GlobalLfu);
  config.neighborhood_size = 200;  // 2 shards, 16 workers
  const auto serial = run_json(sharding_trace(), config, 1);
  EXPECT_EQ(serial, run_json(sharding_trace(), config, 16));
}

// Chunk size only re-cuts the job graph (more, smaller feed tasks); the
// per-shard event order — and hence the bytes — must not move.
TEST(ThreadCountInvarianceExtras, ChunkSizeInvisibleOnExecutorPath) {
  auto config = sharding_config(StrategyKind::GlobalLfu);
  const auto serial = run_json(sharding_trace(), config, 1);
  for (const std::int64_t minutes : {20, 45, 240}) {
    config.stream_chunk = sim::SimTime::minutes(minutes);
    EXPECT_EQ(serial, run_json(sharding_trace(), config, 8))
        << "chunk=" << minutes << "min";
  }
}

// One worker runs the same job graph inline, so its scheduling stats
// describe a real run: jobs executed on the one worker, nothing to steal.
TEST(ThreadCountInvarianceExtras, SingleWorkerReportsExecutorStats) {
  auto config = sharding_config(StrategyKind::GlobalLfu);
  config.threads = 1;
  VodSystem system(sharding_trace(), config);
  (void)system.run();
  const auto& stats = system.executor_stats();
  EXPECT_GT(stats.executed, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.worker_busy_ms.size(), 1u);
  EXPECT_EQ(stats.steals, 0u);
}

TEST(ThreadCountInvarianceExtras, FailureWavesAcrossShards) {
  auto config = sharding_config(StrategyKind::Lfu);
  config.peer_failures.push_back({sim::SimTime::hours(20), 0.4, 11});
  config.peer_failures.push_back({sim::SimTime::hours(50), 0.3, 12});
  const auto serial = run_json(sharding_trace(), config, 1);
  EXPECT_EQ(serial, run_json(sharding_trace(), config, 2));
  EXPECT_EQ(serial, run_json(sharding_trace(), config, 8));
}

// A failure wave after one neighborhood's last session but before another
// neighborhood's: the serial engine still wipes the idle neighborhood
// (some event system-wide is at or after the wave), so the shard must
// flush it — at any thread count.
TEST(FailureFlush, LateWaveHitsIdleNeighborhoods) {
  // Users 0,1 -> neighborhood A; users 2,3 -> neighborhood B (the builder
  // shuffles deterministically, so just make both neighborhoods active).
  const auto trace = test::make_trace(
      test::uniform_catalog(1, 10),
      {{0, 0, 0, 600},
       {0, 1, 0, 600},
       {0, 2, 0, 600},
       {40'000, 3, 0, 300}},  // only one neighborhood is active this late
      /*user_count=*/4);
  SystemConfig config;
  config.neighborhood_size = 2;
  config.per_peer_storage = DataSize::gigabytes(1);
  config.strategy.kind = StrategyKind::Lru;
  config.warmup = sim::SimTime{};
  // Every peer everywhere fails at t=30000s, after both neighborhoods'
  // early sessions end but before the straggler at t=40000s.
  config.peer_failures.push_back({sim::SimTime::seconds(30'000), 1.0, 3});

  for (const std::uint32_t threads : {1u, 2u}) {
    config.threads = threads;
    VodSystem system(trace, config);
    const auto report = system.run();
    // All four peers wiped, including the neighborhood with no events at or
    // after the wave.
    EXPECT_EQ(report.peer_failures, 4u) << threads << " threads";
    EXPECT_GT(report.wiped_bytes, 0.0) << threads << " threads";
  }
}

// Executor-path pins on the two shipped scenarios that stress the job
// graph hardest: neighborhood_skew (one hot shard whose chunk chain must
// pipeline across workers while cold shards starve) and failure_storm
// (the demux-computed flush time plus pre-rolled failure waves).  Byte-identity
// across threads 1/2/8/16 and across chunk sizes, under GlobalLFU so the
// prepass-built board and its per-shard views are on the hook too.
class ScenarioExecutorIdentity : public ::testing::TestWithParam<const char*> {
};

INSTANTIATE_TEST_SUITE_P(Scenarios, ScenarioExecutorIdentity,
                         ::testing::Values("neighborhood_skew",
                                           "failure_storm"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(ScenarioExecutorIdentity, ByteIdenticalAcrossThreadsAndChunks) {
  const auto path = std::filesystem::path(VODCACHE_SCENARIO_DIR) /
                    (std::string(GetParam()) + ".scn");
  scenario::RunConfig base;
  base.system.strategy.kind = StrategyKind::GlobalLfu;
  base.system.strategy.lfu_history = sim::SimTime::hours(24);
  const auto loaded = scenario::load_scenario_file(path.string(), base);
  auto config = loaded.system;
  const scenario::ScenarioWorkload workload(loaded.scenario,
                                            config.neighborhood_size);

  config.threads = 1;
  std::string reference;
  {
    VodSystem system(workload.source(), config);
    reference = to_json(system.run(), /*include_neighborhoods=*/true);
  }
  for (const std::uint32_t threads : {2u, 8u, 16u}) {
    auto run = config;
    run.threads = threads;
    VodSystem system(workload.source(), run);
    EXPECT_EQ(to_json(system.run(), true), reference)
        << "threads=" << threads;
  }
  for (const std::int64_t minutes : {30, 180}) {
    auto run = config;
    run.threads = 8;
    run.stream_chunk = sim::SimTime::minutes(minutes);
    VodSystem system(workload.source(), run);
    EXPECT_EQ(to_json(system.run(), true), reference)
        << "chunk=" << minutes << "min";
  }
}

// The prepass chain seals the GlobalLFU board and publishes tier plans one
// epoch of the chunk grid at a time, while feeds run; a feed waits only
// for the epoch that seals what it reads (the board and top-popular plans
// no lookahead, oracle plans one refresh window, the Oracle's future index
// the whole trace, which makes the prepass one job).  Every product and
// each lookahead, at several thread counts and chunk sizes (so several
// epoch grids), against one worker.
struct PrepassCase {
  const char* name;
  void (*apply)(SystemConfig&);
};

void PrintTo(const PrepassCase& c, std::ostream* os) { *os << c.name; }

void add_hub(SystemConfig& config, PrefetchKind kind) {
  config.strategy.kind = StrategyKind::Lfu;
  config.tiers.push_back(hfc::TierLevelSpec{});
  config.tiers.back().fan_in = 3;
  config.tiers.back().capacity = DataSize::gigabytes(20);
  config.prefetch.kind = kind;
  config.prefetch.refresh = sim::SimTime::hours(5);
}

// The source with its prepass read held back: every stream after the
// first (the orchestrator opens the demux's first) pauses every few
// records, so the feeds run ahead of the prepass chain and a feed that
// waits for too early an epoch reads past a seal and aborts, instead of
// passing because the prepass happened to win the race.
class LaggingPrepassSource final : public trace::SessionSource {
 public:
  explicit LaggingPrepassSource(const trace::SessionSource& inner)
      : inner_(&inner) {}

  [[nodiscard]] const trace::Catalog& catalog() const override {
    return inner_->catalog();
  }
  [[nodiscard]] std::uint32_t user_count() const override {
    return inner_->user_count();
  }
  [[nodiscard]] sim::SimTime horizon() const override {
    return inner_->horizon();
  }
  [[nodiscard]] std::unique_ptr<trace::SessionStream> open() const override {
    return std::make_unique<Stream>(inner_->open(), opened_++ > 0);
  }

 private:
  class Stream final : public trace::SessionStream {
   public:
    Stream(std::unique_ptr<trace::SessionStream> inner, bool lagging)
        : inner_(std::move(inner)), lagging_(lagging) {}
    bool next(trace::SessionRecord& out) override {
      if (lagging_ && ++read_ % 50 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
      return inner_->next(out);
    }

   private:
    std::unique_ptr<trace::SessionStream> inner_;
    bool lagging_;
    std::uint64_t read_ = 0;
  };

  const trace::SessionSource* inner_;
  mutable std::uint32_t opened_ = 0;
};

class PrepassChainIdentity : public ::testing::TestWithParam<PrepassCase> {};

INSTANTIATE_TEST_SUITE_P(
    Products, PrepassChainIdentity,
    ::testing::Values(
        PrepassCase{"GlobalLfuLive", [](SystemConfig&) {}},
        PrepassCase{"GlobalLfuLagOneHour",
                    [](SystemConfig& c) {
                      c.strategy.global_lag = sim::SimTime::hours(1);
                    }},
        PrepassCase{"HubTopPopular",
                    [](SystemConfig& c) {
                      add_hub(c, PrefetchKind::TopPopular);
                    }},
        PrepassCase{"HubOracle",
                    [](SystemConfig& c) { add_hub(c, PrefetchKind::Oracle); }},
        PrepassCase{"OraclePrimary",
                    [](SystemConfig& c) {
                      c.strategy.kind = StrategyKind::Oracle;
                    }},
        PrepassCase{"ShadowMatrix",
                    [](SystemConfig& c) {
                      c.shadow_matrix = true;
                      c.per_peer_storage = DataSize::megabytes(150);
                    }}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(PrepassChainIdentity, ByteIdenticalAcrossThreadsAndChunks) {
  auto config = sharding_config(StrategyKind::GlobalLfu);
  GetParam().apply(config);
  config.threads = 1;
  std::string reference;
  {
    SCOPED_TRACE(test::repro_line(sharding_workload(), config));
    VodSystem system(sharding_trace(), config);
    const auto report = system.run();
    if (!config.tiers.empty()) {
      EXPECT_GT(report.tiers[0].hits, 0u);
    }
    reference = to_json(report, /*include_neighborhoods=*/true);
  }
  const auto expect_same = [&](const SystemConfig& run) {
    SCOPED_TRACE(test::repro_line(sharding_workload(), run) +
                 " prepass_read=lagging");
    const LaggingPrepassSource source(sharding_trace());
    VodSystem system(source, run);
    EXPECT_EQ(to_json(system.run(), true), reference);
  };
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    auto run = config;
    run.threads = threads;
    expect_same(run);
  }
  for (const std::int64_t minutes : {30, 180}) {
    auto run = config;
    run.threads = 4;
    run.stream_chunk = sim::SimTime::minutes(minutes);
    expect_same(run);
  }
}

// The jobs of a run with a single prepass job: every chunk's demux, every
// shard's feed of every chunk, one finish per shard, the merge and the
// prepass.
std::uint64_t jobs_with_one_prepass(const VodSystem& system,
                                    const SystemConfig& config) {
  const std::uint64_t chunks =
      static_cast<std::uint64_t>(sharding_trace().horizon().millis_count() /
                                 config.stream_chunk.millis_count()) +
      1;
  const std::uint64_t shards = system.topology().neighborhood_count();
  return chunks + shards * chunks + shards + 2;
}

// A product read whole — the Oracle's future index, which the shadow
// matrix builds too — leaves every feed waiting for the prepass's last
// epoch, so the prepass is one job that freezes everything once.
TEST(PrepassEpochs, WholeTraceLookaheadIsOnePrepassJob) {
  for (const bool matrix : {false, true}) {
    auto config = sharding_config(StrategyKind::Oracle);
    config.shadow_matrix = matrix;
    config.threads = 2;
    SCOPED_TRACE(test::repro_line(sharding_workload(), config));
    VodSystem system(sharding_trace(), config);
    (void)system.run();
    EXPECT_EQ(system.executor_stats().executed,
              jobs_with_one_prepass(system, config));
  }
}

// Products that look no further than a chunk's end keep the epoch grid:
// the feeds of early chunks start before the prepass has read the rest.
TEST(PrepassEpochs, TopPopularHubKeepsSeveralEpochs) {
  auto config = sharding_config(StrategyKind::GlobalLfu);
  add_hub(config, PrefetchKind::TopPopular);
  config.strategy.kind = StrategyKind::GlobalLfu;
  config.threads = 2;
  SCOPED_TRACE(test::repro_line(sharding_workload(), config));
  VodSystem system(sharding_trace(), config);
  (void)system.run();
  EXPECT_GT(system.executor_stats().executed,
            jobs_with_one_prepass(system, config));
}

// A wave dated after the last event in the whole system never fires — the
// serial engine has no event left to apply it at.
TEST(FailureFlush, WaveAfterLastEventNeverFires) {
  const auto trace = test::make_trace(test::uniform_catalog(1, 10),
                                      {{0, 0, 0, 600}}, /*user_count=*/1);
  SystemConfig config;
  config.neighborhood_size = 1;
  config.per_peer_storage = DataSize::gigabytes(1);
  config.strategy.kind = StrategyKind::Lru;
  config.warmup = sim::SimTime{};
  // Last event is the 300 s segment boundary; the wave is later.
  config.peer_failures.push_back({sim::SimTime::seconds(400), 1.0, 3});

  for (const std::uint32_t threads : {1u, 2u}) {
    config.threads = threads;
    VodSystem system(trace, config);
    const auto report = system.run();
    EXPECT_EQ(report.peer_failures, 0u) << threads << " threads";
  }
}

}  // namespace
}  // namespace vodcache::core
