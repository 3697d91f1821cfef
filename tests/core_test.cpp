// Tests for the core system: the index-server request flow of the paper's
// figures 4 and 5, and small hand-checkable end-to-end VodSystem runs.
#include <gtest/gtest.h>

#include <memory>

#include "cache/future_index.hpp"
#include "cache/lfu.hpp"
#include "cache/lru.hpp"
#include "cache/popularity_board.hpp"
#include "core/index_server.hpp"
#include "core/media_server.hpp"
#include "core/neighborhood_shard.hpp"
#include "core/policy_registry.hpp"
#include "core/vod_system.hpp"
#include "test_support.hpp"

namespace vodcache::core {
namespace {

using test::make_trace;
using test::uniform_catalog;

SystemConfig small_config() {
  SystemConfig config;
  config.neighborhood_size = 4;
  config.per_peer_storage = DataSize::gigabytes(1);
  config.stream_rate = DataRate::megabits_per_second(8.0);
  config.strategy.kind = StrategyKind::Lru;
  config.warmup = sim::SimTime{};
  return config;
}

sim::Interval span(std::int64_t from_s, std::int64_t to_s) {
  return {sim::SimTime::seconds(from_s), sim::SimTime::seconds(to_s)};
}

constexpr double kSegmentBits = 8e6 * 300;
// Program lengths of the direct IndexServer tests: at 8 Mb/s, a
// two-segment program is 600 MB and a one-segment program 300 MB.
constexpr int kProgramMinutes = 10;
constexpr int kOneSegmentMinutes = 5;

// Eight programs of `program_minutes` each.
struct Fixture {
  explicit Fixture(SystemConfig cfg = small_config(),
                   int program_minutes = kProgramMinutes)
      : config(cfg),
        catalog(uniform_catalog(8, program_minutes)),
        media(sim::SimTime::days(1), config.meter_bucket),
        server(NeighborhoodId{0}, config.neighborhood_size, config, catalog,
               test::one_cell(std::make_unique<cache::LruStrategy>(history)),
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

// -------------------------------------------------- request flow (fig 4/5)

TEST(IndexServer, ColdMissGoesToServerAndFills) {
  Fixture f;
  const bool admit = f.start(ProgramId{0}, sim::SimTime{});
  EXPECT_TRUE(admit);  // LRU admits immediately

  const auto result = f.server.serve_segment(
      PeerId{0}, {ProgramId{0}, 0}, span(0, 300), admit, /*full_slice=*/true);
  EXPECT_EQ(result, ServeResult::MissCold);
  EXPECT_DOUBLE_EQ(f.media.meter().total_bits(), kSegmentBits);
  // The broadcast was cached off the wire.
  EXPECT_FALSE(f.server.store().locate({ProgramId{0}, 0}).empty());
  EXPECT_EQ(f.server.counters().fills, 1u);
}

TEST(IndexServer, SecondRequestIsPeerHit) {
  Fixture f;
  const bool admit = f.start(ProgramId{0}, sim::SimTime{});
  f.server.serve_segment(PeerId{0}, {ProgramId{0}, 0}, span(0, 300), admit,
                         true);
  const auto result = f.server.serve_segment(
      PeerId{1}, {ProgramId{0}, 0}, span(400, 700), admit, true);
  EXPECT_EQ(result, ServeResult::PeerHit);
  // Server served only the first transmission.
  EXPECT_DOUBLE_EQ(f.media.meter().total_bits(), kSegmentBits);
  EXPECT_EQ(f.server.counters().hits, 1u);
}

TEST(IndexServer, CoaxCarriesHitsAndMissesAlike) {
  // Section VI-B: the broadcast consumes the same coax bandwidth whether a
  // peer or the headend sends it.
  Fixture f;
  const bool admit = f.start(ProgramId{0}, sim::SimTime{});
  f.server.serve_segment(PeerId{0}, {ProgramId{0}, 0}, span(0, 300), admit,
                         true);
  f.server.serve_segment(PeerId{1}, {ProgramId{0}, 0}, span(400, 700), admit,
                         true);
  EXPECT_DOUBLE_EQ(f.server.coax_meter().total_bits(), 2 * kSegmentBits);
  EXPECT_DOUBLE_EQ(f.server.peer_meter().total_bits(), kSegmentBits);
}

TEST(IndexServer, ConservationCoaxEqualsServerPlusPeer) {
  Fixture f;
  const bool admit = f.start(ProgramId{0}, sim::SimTime{});
  for (int i = 0; i < 6; ++i) {
    f.server.serve_segment(PeerId{static_cast<std::uint32_t>(i % 4)},
                           {ProgramId{0}, static_cast<std::uint32_t>(i % 2)},
                           span(i * 400, i * 400 + 300), admit, true);
  }
  EXPECT_NEAR(f.server.coax_meter().total_bits(),
              f.media.meter().total_bits() +
                  f.server.peer_meter().total_bits(),
              1.0);
}

TEST(IndexServer, BusyPeerTriggersMissAndReplica) {
  auto cfg = small_config();
  cfg.replicate_on_busy = true;  // the replication extension
  Fixture f(cfg);
  const bool admit = f.start(ProgramId{0}, sim::SimTime{});
  // Fill the segment once (cold miss).
  f.server.serve_segment(PeerId{0}, {ProgramId{0}, 0}, span(0, 300), admit,
                         true);
  ASSERT_EQ(f.server.store().locate({ProgramId{0}, 0}).size(), 1u);

  // Two concurrent hits saturate the storing peer's 2 streams.
  EXPECT_EQ(f.server.serve_segment(PeerId{1}, {ProgramId{0}, 0},
                                   span(400, 700), admit, true),
            ServeResult::PeerHit);
  EXPECT_EQ(f.server.serve_segment(PeerId{2}, {ProgramId{0}, 0},
                                   span(410, 710), admit, true),
            ServeResult::PeerHit);
  // Third concurrent request: storing peer busy -> miss via server, and the
  // index server replicates the segment onto another peer.
  EXPECT_EQ(f.server.serve_segment(PeerId{3}, {ProgramId{0}, 0},
                                   span(420, 720), admit, true),
            ServeResult::MissBusy);
  EXPECT_EQ(f.server.store().locate({ProgramId{0}, 0}).size(), 2u);

  // A fourth concurrent request now hits the fresh replica.
  EXPECT_EQ(f.server.serve_segment(PeerId{0}, {ProgramId{0}, 0},
                                   span(430, 730), admit, true),
            ServeResult::PeerHit);
}

TEST(IndexServer, NoReplicaOnBusyByDefault) {
  // Paper-faithful default: a busy miss is served by the central server and
  // the already-cached segment is left alone.
  Fixture f;
  const bool admit = f.start(ProgramId{0}, sim::SimTime{});
  f.server.serve_segment(PeerId{0}, {ProgramId{0}, 0}, span(0, 300), admit,
                         true);
  f.server.serve_segment(PeerId{1}, {ProgramId{0}, 0}, span(400, 700), admit,
                         true);
  f.server.serve_segment(PeerId{2}, {ProgramId{0}, 0}, span(410, 710), admit,
                         true);
  EXPECT_EQ(f.server.serve_segment(PeerId{3}, {ProgramId{0}, 0},
                                   span(420, 720), admit, true),
            ServeResult::MissBusy);
  EXPECT_EQ(f.server.store().locate({ProgramId{0}, 0}).size(), 1u);
}

TEST(IndexServer, ViewerPlaybackCountsAgainstServing) {
  Fixture f;
  const bool admit = f.start(ProgramId{0}, sim::SimTime{});
  f.server.serve_segment(PeerId{0}, {ProgramId{0}, 0}, span(0, 300), admit,
                         true);
  const PeerId storer = f.server.store().locate({ProgramId{0}, 0})[0];

  // The storing peer starts watching two streams of its own.
  f.server.occupy_viewer_slot(storer, span(400, 2000));
  f.server.occupy_viewer_slot(storer, span(400, 2000));
  // Asked to serve: at its 2-stream limit -> busy miss.
  EXPECT_EQ(f.server.serve_segment(PeerId{1}, {ProgramId{0}, 0},
                                   span(500, 800), admit, true),
            ServeResult::MissBusy);
}

TEST(IndexServer, NoFillWithoutAdmission) {
  Fixture f;
  f.server.serve_segment(PeerId{0}, {ProgramId{0}, 0}, span(0, 300),
                         /*admit=*/false, /*full_slice=*/true);
  EXPECT_TRUE(f.server.store().locate({ProgramId{0}, 0}).empty());
  EXPECT_EQ(f.server.counters().fills, 0u);
}

TEST(IndexServer, NoFillForPartialSlice) {
  // A viewer quitting mid-segment stops the broadcast; the partial segment
  // is not cached.
  Fixture f;
  const bool admit = f.start(ProgramId{0}, sim::SimTime{});
  f.server.serve_segment(PeerId{0}, {ProgramId{0}, 0}, span(0, 120), admit,
                         /*full_slice=*/false);
  EXPECT_TRUE(f.server.store().locate({ProgramId{0}, 0}).empty());
}

TEST(IndexServer, LruEvictionMakesRoom) {
  auto config = small_config();
  // Room for exactly two segments in the whole neighborhood: force
  // evictions on the third distinct program.
  config.neighborhood_size = 1;
  config.per_peer_storage = DataSize::bytes(2 * 300 * 1'000'000);
  Fixture f(config, kOneSegmentMinutes);

  for (std::uint32_t p = 0; p < 2; ++p) {
    const bool admit =
        f.start(ProgramId{p}, sim::SimTime::seconds(p * 1000));
    f.server.serve_segment(PeerId{0}, {ProgramId{p}, 0},
                           span(p * 1000, p * 1000 + 300), admit, true);
  }
  EXPECT_FALSE(f.server.store().locate({ProgramId{0}, 0}).empty());
  EXPECT_FALSE(f.server.store().locate({ProgramId{1}, 0}).empty());

  // Program 2 arrives: LRU discards program 0 (least recently accessed).
  const bool admit =
      f.start(ProgramId{2}, sim::SimTime::seconds(5000));
  f.server.serve_segment(PeerId{0}, {ProgramId{2}, 0}, span(5000, 5300),
                         admit, true);
  EXPECT_TRUE(f.server.store().locate({ProgramId{0}, 0}).empty());
  EXPECT_FALSE(f.server.store().locate({ProgramId{1}, 0}).empty());
  EXPECT_FALSE(f.server.store().locate({ProgramId{2}, 0}).empty());
  EXPECT_EQ(f.server.counters().evictions, 1u);
}

TEST(IndexServer, StrategyAndStoreStayConsistent) {
  auto config = small_config();
  config.neighborhood_size = 2;
  config.per_peer_storage = DataSize::bytes(300 * 1'000'000);
  Fixture f(config, kOneSegmentMinutes);
  for (std::uint32_t p = 0; p < 6; ++p) {
    const bool admit =
        f.start(ProgramId{p}, sim::SimTime::seconds(p * 600));
    f.server.serve_segment(PeerId{p % 2}, {ProgramId{p}, 0},
                           span(p * 600, p * 600 + 300), admit, true);
  }
  // Every stored program is admitted: the scorer's cached set holds it.
  // The admitted programs are all the set holds, and their full sizes fit
  // the capacity.
  const auto& scorer = *f.server.cells()[f.server.primary()].scorer();
  const auto& store = f.server.store();
  std::size_t admitted = 0;
  DataSize admitted_size;
  for (std::uint32_t p = 0; p < 6; ++p) {
    const ProgramId program{p};
    if (!store.locate({program, 0}).empty()) {
      EXPECT_TRUE(scorer.is_cached(program));
    }
    if (scorer.is_cached(program)) {
      ++admitted;
      admitted_size += f.catalog.program_size(program, f.config.stream_rate);
    }
  }
  EXPECT_EQ(scorer.cached_count(), admitted);
  EXPECT_LE(admitted_size, store.capacity());
}

// ------------------------------------------------------- VodSystem runs

TEST(VodSystem, NoCacheServerLoadEqualsDemand) {
  const auto trace = make_trace(
      uniform_catalog(3, 30),
      {{100, 0, 0, 900}, {200, 1, 1, 450}, {50'000, 2, 2, 1800}},
      /*user_count=*/4);
  auto config = small_config();
  config.strategy.kind = StrategyKind::None;
  config.per_peer_storage = DataSize{};

  VodSystem system(trace, config);
  const auto report = system.run();

  const double demand_bits =
      static_cast<double>(test::total_demand(trace, config.stream_rate).bit_count());
  EXPECT_NEAR(report.server_bits, demand_bits, demand_bits * 1e-9);
  EXPECT_EQ(report.hits, 0u);
  EXPECT_EQ(report.sessions, 3u);
}

TEST(VodSystem, SegmentCountPerSession) {
  // 700 s of viewing = segments of 300 + 300 + 100 seconds.
  const auto trace = make_trace(uniform_catalog(1, 30), {{0, 0, 0, 700}},
                                /*user_count=*/1);
  auto config = small_config();
  config.neighborhood_size = 1;
  VodSystem system(trace, config);
  const auto report = system.run();
  EXPECT_EQ(report.segments, 3u);
  EXPECT_NEAR(report.coax_bits, 8e6 * 700, 1.0);
}

TEST(VodSystem, RepeatViewingHitsCache) {
  const auto trace = make_trace(uniform_catalog(1, 10),
                                {{0, 0, 0, 600},      // cold: 2 segments
                                 {10'000, 1, 0, 600},  // hits
                                 {20'000, 2, 0, 600},  // hits
                                 {30'000, 3, 0, 600}},
                                /*user_count=*/4);
  VodSystem system(trace, small_config());
  const auto report = system.run();
  EXPECT_EQ(report.cold_misses, 2u);
  EXPECT_EQ(report.hits, 6u);
  EXPECT_EQ(report.busy_misses, 0u);
  EXPECT_NEAR(report.server_bits, 2 * kSegmentBits, 1.0);
}

TEST(VodSystem, ConservationAcrossNeighborhoods) {
  const auto trace =
      trace::generate_power_info_like(test::small_workload(2));
  auto config = small_config();
  config.neighborhood_size = 50;  // 4 neighborhoods of the 200 users
  config.strategy.kind = StrategyKind::Lfu;
  VodSystem system(trace, config);
  const auto report = system.run();
  EXPECT_EQ(report.neighborhood_count, 4u);
  EXPECT_NEAR(report.coax_bits, report.server_bits + report.peer_bits,
              report.coax_bits * 1e-9);
}

TEST(VodSystem, DeterministicAcrossRuns) {
  const auto trace =
      trace::generate_power_info_like(test::small_workload(2));
  auto config = small_config();
  config.neighborhood_size = 50;
  config.strategy.kind = StrategyKind::Lfu;

  VodSystem a(trace, config);
  VodSystem b(trace, config);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.hits, rb.hits);
  EXPECT_EQ(ra.cold_misses, rb.cold_misses);
  EXPECT_EQ(ra.busy_misses, rb.busy_misses);
  EXPECT_DOUBLE_EQ(ra.server_bits, rb.server_bits);
  EXPECT_DOUBLE_EQ(ra.server_peak.mean.bps(), rb.server_peak.mean.bps());
}

TEST(VodSystem, RunIsSingleShot) {
  const auto trace = make_trace(uniform_catalog(1), {{0, 0, 0, 60}}, 1);
  VodSystem system(trace, small_config());
  (void)system.run();
  EXPECT_DEATH((void)system.run(), "precondition");
}

TEST(VodSystem, ZeroCapacityNeverCaches) {
  const auto trace =
      trace::generate_power_info_like(test::small_workload(1));
  auto config = small_config();
  config.neighborhood_size = 50;
  config.per_peer_storage = DataSize{};
  config.strategy.kind = StrategyKind::Lfu;
  VodSystem system(trace, config);
  const auto report = system.run();
  EXPECT_EQ(report.hits, 0u);
  EXPECT_EQ(report.fills, 0u);
}

TEST(VodSystem, ReportAggregatesMatchNeighborhoods) {
  const auto trace =
      trace::generate_power_info_like(test::small_workload(2));
  auto config = small_config();
  config.neighborhood_size = 64;
  VodSystem system(trace, config);
  const auto report = system.run();

  std::uint64_t sessions = 0;
  std::uint64_t hits = 0;
  for (const auto& n : report.neighborhoods) {
    sessions += n.sessions;
    hits += n.hits;
  }
  EXPECT_EQ(sessions, report.sessions);
  EXPECT_EQ(hits, report.hits);
  EXPECT_EQ(report.sessions, trace.session_count());
}

TEST(VodSystem, HitRatioAndByteRatioConsistent) {
  const auto trace =
      trace::generate_power_info_like(test::small_workload(2));
  auto config = small_config();
  config.neighborhood_size = 100;
  VodSystem system(trace, config);
  const auto report = system.run();
  EXPECT_GT(report.hit_ratio(), 0.0);
  EXPECT_LT(report.hit_ratio(), 1.0);
  EXPECT_GT(report.byte_hit_ratio(), 0.0);
  // Byte ratio need not equal request ratio, but must be in (0, 1).
  EXPECT_LT(report.byte_hit_ratio(), 1.0);
}

TEST(VodSystem, FiberFeedIsCoaxMinusPeerTraffic) {
  const auto trace =
      trace::generate_power_info_like(test::small_workload(2));
  auto config = small_config();
  config.neighborhood_size = 50;
  config.strategy.kind = StrategyKind::Lfu;
  VodSystem system(trace, config);
  const auto report = system.run();
  for (const auto& n : report.neighborhoods) {
    // Mean fiber feed equals mean coax minus mean peer-served exactly
    // (same bucket population, linear statistic).
    EXPECT_NEAR(n.fiber_peak.mean.bps(),
                n.coax_peak.mean.bps() - n.peer_peak.mean.bps(),
                1.0 + n.coax_peak.mean.bps() * 1e-9);
    // And can never be negative or exceed the coax total.
    EXPECT_GE(n.fiber_peak.mean.bps(), -1e-9);
    EXPECT_LE(n.fiber_peak.q95.bps(), n.coax_peak.max.bps() + 1e-9);
  }
}

TEST(VodSystem, WarmupShrinksToHalfHorizonForShortRuns) {
  const auto trace = make_trace(uniform_catalog(1), {{0, 0, 0, 60}}, 1);
  auto config = small_config();
  config.warmup = sim::SimTime::days(7);  // longer than the 1-day horizon
  VodSystem system(trace, config);
  const auto report = system.run();
  EXPECT_EQ(report.measured_from, sim::SimTime::hours(12));
}

// ------------------------------------------- segment boundary accounting

// A 7.5-minute program is ceil(450 / 300) = 2 segments; the final segment is
// min(300 s, remaining) = 150 s.  A full watch must transmit exactly 450 s
// at the stream rate — an off-by-one that bills 2 x 300 s shows up here.
TEST(VodSystem, FinalPartialSegmentBillsOnlyRemainingSeconds) {
  std::vector<trace::ProgramInfo> programs(1);
  programs[0] = {sim::SimTime::seconds(450), sim::SimTime{}, 1.0};
  const auto trace =
      make_trace(trace::Catalog(std::move(programs)), {{0, 0, 0, 450}}, 1);
  VodSystem system(trace, small_config());
  const auto report = system.run();
  EXPECT_EQ(report.segments, 2u);
  EXPECT_DOUBLE_EQ(report.coax_bits, 8e6 * 450);
  EXPECT_DOUBLE_EQ(report.server_bits, 8e6 * 450);  // cold cache: all misses
}

// --------------------------------------------------- MediaServer::merge

// The orchestrator folds one MediaServer slice per shard into the report's
// central server; a neighborhood whose slice saw no sessions contributes an
// all-zero meter and must be a perfect no-op.
TEST(MediaServerMerge, ZeroSessionShardIsANoOp) {
  const auto horizon = sim::SimTime::days(1);
  const auto bucket = sim::SimTime::minutes(15);
  MediaServer active(horizon, bucket);
  active.serve({sim::SimTime::seconds(100), sim::SimTime::seconds(700)},
               DataRate::megabits_per_second(8.0));
  const auto meter_bits_before = active.meter().total_bits();

  const MediaServer idle(horizon, bucket);
  active.merge(idle);
  EXPECT_DOUBLE_EQ(active.meter().total_bits(), meter_bits_before);

  // The other direction: an empty accumulator absorbing a slice yields
  // exactly that slice.
  MediaServer fresh(horizon, bucket);
  fresh.merge(active);
  EXPECT_DOUBLE_EQ(fresh.meter().total_bits(), active.meter().total_bits());
}

// Two-slice merges commute bit-exactly: per-bucket sums are a + b vs b + a
// (double addition is commutative), so either visit order yields identical
// meters.  Three and more slices rely on the orchestrator's *fixed*
// neighborhood-index order instead — double addition is not associative —
// which is why build_report never reorders shards.
TEST(MediaServerMerge, PairwiseMergeOrderIsBitExact) {
  const auto horizon = sim::SimTime::days(1);
  const auto bucket = sim::SimTime::minutes(15);
  // Rates with non-trivial fractional bit counts in the shared buckets.
  MediaServer a(horizon, bucket);
  a.serve({sim::SimTime::seconds(100), sim::SimTime::seconds(1000)},
          DataRate::megabits_per_second(8.06));
  a.serve({sim::SimTime::seconds(2000), sim::SimTime::seconds(2300)},
          DataRate::megabits_per_second(3.1));
  MediaServer b(horizon, bucket);
  b.serve({sim::SimTime::seconds(500), sim::SimTime::seconds(2100)},
          DataRate::megabits_per_second(1.7));

  MediaServer ab(horizon, bucket);
  ab.merge(a);
  ab.merge(b);
  MediaServer ba(horizon, bucket);
  ba.merge(b);
  ba.merge(a);

  // bit-exact, not NEAR
  EXPECT_EQ(ab.meter().total_bits(), ba.meter().total_bits());
  const auto buckets =
      static_cast<std::size_t>(horizon.millis_count() / bucket.millis_count());
  for (std::size_t i = 0; i < buckets; ++i) {
    EXPECT_EQ(ab.meter().bucket_bits(i), ba.meter().bucket_bits(i)) << i;
  }
}

// Merging preserves the total regardless of how slices are grouped when
// the values are exactly representable — the conservation property the
// report's totals lean on.
TEST(MediaServerMerge, TotalsConserveAcrossManySlices) {
  const auto horizon = sim::SimTime::hours(2);
  const auto bucket = sim::SimTime::minutes(15);
  MediaServer sum(horizon, bucket);
  double expected_bits = 0.0;
  for (int i = 0; i < 5; ++i) {
    MediaServer slice(horizon, bucket);
    // 2^i Mb/s over 1000 s: every bucket contribution is a dyadic rational
    // times 1e6, so double addition is exact in any association.
    const auto rate = DataRate::megabits_per_second(1 << i);
    slice.serve({sim::SimTime::seconds(i * 1000),
                 sim::SimTime::seconds(i * 1000 + 1000)},
                rate);
    expected_bits += rate.bps() * 1000.0;
    sum.merge(slice);
  }
  EXPECT_DOUBLE_EQ(sum.meter().total_bits(), expected_bits);
}

// Quitting mid-segment transmits only up to the quit time, and a session
// that ends exactly on a segment boundary must not start the next segment.
TEST(VodSystem, SessionEndClampsAndBoundaryEndStartsNoExtraSegment) {
  {
    const auto trace = make_trace(uniform_catalog(1), {{0, 0, 0, 310}}, 1);
    VodSystem system(trace, small_config());
    const auto report = system.run();
    EXPECT_EQ(report.segments, 2u);
    EXPECT_DOUBLE_EQ(report.coax_bits, 8e6 * 310);
  }
  {
    const auto trace = make_trace(uniform_catalog(1), {{0, 0, 0, 300}}, 1);
    VodSystem system(trace, small_config());
    const auto report = system.run();
    EXPECT_EQ(report.segments, 1u);
    EXPECT_DOUBLE_EQ(report.coax_bits, 8e6 * 300);
  }
}

// The shard's boundary queue pops in time order only while starts never
// go back in time, so a session that starts before the last one fed aborts
// — across batches or within one — instead of being replayed out of order.
// A start equal to the last one is a tie, not a regression.
TEST(NeighborhoodShard, StartBeforeLastFedSessionAborts) {
  const auto catalog = uniform_catalog(1);
  const auto config = small_config();
  const cache::FutureIndex future(0);
  const auto session = [](std::int64_t start_s) {
    return NeighborhoodShard::StreamSession{
        {sim::SimTime::seconds(start_s), UserId{0}, ProgramId{0},
         sim::SimTime::minutes(20)},
        0,
        PeerId{0}};
  };
  const auto make_shard = [&] {
    return std::make_unique<NeighborhoodShard>(
        NeighborhoodId{0}, 1, catalog, sim::SimTime::days(1), config,
        &future, nullptr, std::vector<NeighborhoodShard::PendingFailure>{});
  };

  const NeighborhoodShard::StreamSession at_600[] = {session(600)};
  const NeighborhoodShard::StreamSession at_300[] = {session(300)};
  const NeighborhoodShard::StreamSession backwards[] = {session(600),
                                                        session(300)};
  {
    auto shard = make_shard();
    shard->feed(at_600);
    shard->feed(at_600);
    shard->finish(sim::SimTime::seconds(600));
    EXPECT_GT(shard->index_server().counters().cold_misses, 0u);
  }
  EXPECT_DEATH(
      {
        auto shard = make_shard();
        shard->feed(at_600);
        shard->feed(at_300);
      },
      "precondition");
  EXPECT_DEATH(make_shard()->feed(backwards), "precondition");
}

// A fill stores the catalog's size for its segment, which is the
// transmitted slice only while a session ends within its program: a
// session longer than its program aborts.  Exactly the program's length
// is fine.
TEST(NeighborhoodShard, SessionLongerThanItsProgramAborts) {
  const auto catalog = uniform_catalog(1, 7);
  const auto config = small_config();
  const cache::FutureIndex future(0);
  const auto session = [](sim::SimTime duration) {
    return NeighborhoodShard::StreamSession{
        {sim::SimTime::seconds(60), UserId{0}, ProgramId{0}, duration}, 0,
        PeerId{0}};
  };
  const auto make_shard = [&] {
    return std::make_unique<NeighborhoodShard>(
        NeighborhoodId{0}, 1, catalog, sim::SimTime::days(1), config,
        &future, nullptr, std::vector<NeighborhoodShard::PendingFailure>{});
  };

  const NeighborhoodShard::StreamSession whole[] = {
      session(sim::SimTime::minutes(7))};
  const NeighborhoodShard::StreamSession longer[] = {
      session(sim::SimTime::minutes(7) + sim::SimTime::millis(1))};
  {
    auto shard = make_shard();
    shard->feed(whole);
    shard->finish(sim::SimTime::seconds(60));
    EXPECT_EQ(shard->index_server().counters().cold_misses, 2u);
  }
  EXPECT_DEATH(make_shard()->feed(longer), "precondition");
}

// The no-cache baseline decides nothing, so it is no cell: the index
// server has none without the matrix and exactly the matrix's rows with
// it, the primary index is one past them, and every segment is a cold
// miss.  Every row counts the neighborhood's own sessions and segments.
TEST(NeighborhoodShard, NoCacheNeighborhoodHasNoCell) {
  const auto catalog = uniform_catalog(2, 10);
  // Session `index` (its board entry) is viewer `index`'s.
  const auto session = [](std::uint32_t index, std::int64_t start_s,
                          std::uint32_t program) {
    return NeighborhoodShard::StreamSession{
        {sim::SimTime::seconds(start_s), UserId{index}, ProgramId{program},
         sim::SimTime::minutes(10)},
        index,
        PeerId{index}};
  };
  // Program 0 twice, on two boxes: the caching rows fill, then hit.
  const NeighborhoodShard::StreamSession sessions[] = {
      session(0, 0, 0), session(1, 900, 0), session(2, 1800, 1)};
  const SystemConfig defaults;
  auto board = std::make_shared<cache::ReplayBoard>(
      catalog.size(), defaults.strategy.lfu_history,
      defaults.strategy.global_lag);
  cache::FutureIndex future(catalog.size());
  for (const auto& s : sessions) {
    board->add(s.record.program, s.record.start);
    future.add(s.record.program, s.record.start);
  }
  board->freeze();
  future.freeze();

  for (const bool matrix : {false, true}) {
    SCOPED_TRACE(matrix ? "matrix" : "no matrix");
    auto config = small_config();
    config.strategy.kind = StrategyKind::None;
    config.shadow_matrix = matrix;
    NeighborhoodShard shard(NeighborhoodId{0}, 4, catalog,
                            sim::SimTime::days(1), config, &future, board,
                            {});
    shard.feed(sessions);
    shard.finish(sim::SimTime::seconds(1800));

    const IndexServer& server = shard.index_server();
    const std::size_t rows =
        matrix ? (scorer_registry().size() - 1) * admission_registry().size()
               : 0;
    EXPECT_EQ(server.cells().size(), rows);
    EXPECT_EQ(server.pair_count(), rows);
    EXPECT_EQ(server.primary(), rows);
    const auto primary = server.counters();
    EXPECT_EQ(primary.sessions, 3u);
    EXPECT_EQ(primary.segments, 6u);
    EXPECT_EQ(primary.cold_misses, primary.segments);
    EXPECT_EQ(primary.hits, 0u);
    EXPECT_EQ(primary.busy_misses, 0u);
    std::uint64_t row_hits = 0;
    for (std::size_t p = 0; p < rows; ++p) {
      const auto row = server.counters(p);
      EXPECT_EQ(row.sessions, primary.sessions) << p;
      EXPECT_EQ(row.segments, primary.segments) << p;
      EXPECT_EQ(row.hits + row.cold_misses + row.busy_misses, row.segments)
          << p;
      row_hits += row.hits;
    }
    EXPECT_EQ(row_hits > 0, matrix);
  }
}

}  // namespace
}  // namespace vodcache::core
