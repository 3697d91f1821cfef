// Microbenchmarks (google-benchmark) for the hot components of the
// simulator: rate meter, replacement strategies, segment store, one box of
// a cell's stream-slot table, one cache cell's segment serve and its fill
// at capacity, one shard's feed at 1 and 25 cells, building the GlobalLFU
// board of a 40-shard deployment and one GlobalLFU shard's feed against
// it, workload sampling, and the end-to-end event loop.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache_cell.hpp"
#include "cache/future_index.hpp"
#include "cache/lfu.hpp"
#include "cache/lru.hpp"
#include "cache/oracle.hpp"
#include "cache/popularity_board.hpp"
#include "cache/segment_store.hpp"
#include "core/neighborhood_shard.hpp"
#include "core/vod_system.hpp"
#include "hfc/settop.hpp"
#include "hfc/topology.hpp"
#include "sim/rate_meter.hpp"
#include "trace/catalog.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace vodcache;

void BM_RateMeterAdd(benchmark::State& state) {
  sim::RateMeter meter(sim::SimTime::days(28), sim::SimTime::minutes(15));
  const auto rate = DataRate::megabits_per_second(8.06);
  Rng rng(2);
  std::int64_t t = 0;
  for (auto _ : state) {
    t = (t + 37'000) % sim::SimTime::days(27).millis_count();
    meter.add({sim::SimTime::millis(t),
               sim::SimTime::millis(t + 300'000)},
              rate);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RateMeterAdd);

void BM_AliasTableSample(benchmark::State& state) {
  const auto weights = zipf_weights(8278, 1.15);
  const AliasTable table(weights);
  Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(table.sample(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasTableSample);

// One access as a shard runs it — the neighborhood's history records it,
// then the scorer re-ranks — plus the admit/evict the cell would do.
template <typename Strategy>
void run_strategy_loop(benchmark::State& state, cache::AccessHistory& history,
                       Strategy& strategy) {
  Rng rng(4);
  std::int64_t t = 0;
  // Keep ~200 programs cached, churning.
  for (auto _ : state) {
    t += 1000;
    const ProgramId p{static_cast<std::uint32_t>(rng.uniform_u64(2000))};
    history.record(p, sim::SimTime::millis(t));
    strategy.on_access(p, sim::SimTime::millis(t));
    if (!strategy.is_cached(p)) {
      if (strategy.cached_count() >= 200) {
        const auto victim = strategy.victim(sim::SimTime::millis(t));
        if (victim) strategy.on_evict(*victim);
      }
      strategy.on_admit(p, sim::SimTime::millis(t));
    }
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_LruStrategy(benchmark::State& state) {
  cache::AccessHistory history;
  cache::LruStrategy lru(history);
  run_strategy_loop(state, history, lru);
}
BENCHMARK(BM_LruStrategy);

void BM_LfuStrategy(benchmark::State& state) {
  cache::AccessHistory history;
  cache::LfuStrategy lfu(history, sim::SimTime::hours(72));
  run_strategy_loop(state, history, lfu);
}
BENCHMARK(BM_LfuStrategy);

void BM_OracleStrategy(benchmark::State& state) {
  cache::FutureIndex future(2000);
  Rng rng(5);
  for (int i = 0; i < 200'000; ++i) {
    future.add(ProgramId{static_cast<std::uint32_t>(rng.uniform_u64(2000))},
               sim::SimTime::millis(
                   static_cast<std::int64_t>(rng.uniform_u64(1'000'000'000))));
  }
  future.freeze();
  cache::AccessHistory history;
  cache::OracleStrategy oracle(history, future, sim::SimTime::days(3));
  run_strategy_loop(state, history, oracle);
}
BENCHMARK(BM_OracleStrategy);

// `n` programs of `minutes` each, introduced at time 0.
trace::Catalog uniform_catalog(std::uint32_t n, int minutes) {
  std::vector<trace::ProgramInfo> programs(n);
  for (auto& program : programs) {
    program.length = sim::SimTime::minutes(minutes);
    program.base_weight = 1.0;
  }
  return trace::Catalog(std::move(programs));
}

void BM_SegmentStoreChurn(benchmark::State& state) {
  // Ten 302 MB segments per program; ids cycle through the catalog, so an
  // id is evicted before it is stored again.
  constexpr std::uint32_t kPrograms = 1u << 16;
  const trace::Catalog catalog = uniform_catalog(kPrograms, 50);
  cache::SegmentStore store(1000, DataSize::gigabytes(10), catalog,
                            DataRate::megabits_per_second(8.06));
  Rng rng(6);
  std::uint64_t next = 0;
  for (auto _ : state) {
    const ProgramId p{static_cast<std::uint32_t>(next++ % kPrograms)};
    store.evict_program(p);
    for (std::uint32_t s = 0; s < 10; ++s) {
      if (!store.store({p, s})) {
        // Full: evict a random earlier program and retry once.
        store.evict_program(ProgramId{static_cast<std::uint32_t>(
            rng.uniform_u64(std::min<std::uint64_t>(next, kPrograms)))});
        (void)store.store({p, s});
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_SegmentStoreChurn);

void BM_SegmentStoreLocate(benchmark::State& state) {
  // The read side of every segment request: locate() must return its
  // replica span without touching the allocator.  ~2000 programs x 10
  // 3 MB segments resident, random lookups, ~half of them misses.
  const trace::Catalog catalog = uniform_catalog(2000, 50);
  cache::SegmentStore store(1000, DataSize::gigabytes(10), catalog,
                            DataRate::megabits_per_second(0.08));
  for (std::uint32_t p = 0; p < 2000; ++p) {
    for (std::uint32_t s = 0; s < 10; ++s) {
      (void)store.store({ProgramId{p}, s});
    }
  }
  Rng rng(7);
  for (auto _ : state) {
    const cache::SegmentKey key{
        ProgramId{static_cast<std::uint32_t>(rng.uniform_u64(4000))},
        static_cast<std::uint32_t>(rng.uniform_u64(10))};
    benchmark::DoNotOptimize(store.locate(key).size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentStoreLocate);

void BM_SegmentStoreEvict(benchmark::State& state) {
  // Steady store/evict cycle on one program: ten 302 MB segments in,
  // program out, arena blocks and table slots recycled every iteration.
  const trace::Catalog catalog = uniform_catalog(1, 50);
  cache::SegmentStore store(100, DataSize::gigabytes(10), catalog,
                            DataRate::megabits_per_second(8.06));
  for (auto _ : state) {
    for (std::uint32_t s = 0; s < 10; ++s) {
      (void)store.store({ProgramId{0}, s});
    }
    store.evict_program(ProgramId{0});
  }
  state.SetItemsProcessed(state.iterations() * 11);
}
BENCHMARK(BM_SegmentStoreEvict);

// One box of a 1,000-box StreamSlots table at the default limit of 2, two
// try_acquire calls per iteration: one while two transmissions are live
// (refused), then one after the older has ended (granted).  The pair
// leaves the same two-live pattern shifted by one step, so every iteration
// does the same work.
void BM_StreamSlotsTryAcquire(benchmark::State& state) {
  constexpr std::int64_t kStepMs = 1000;
  constexpr std::uint32_t kBox = 500;
  const auto at = [](std::int64_t ms) { return sim::SimTime::millis(ms); };
  hfc::StreamSlots slots(1000, 2);
  (void)slots.try_acquire(kBox, {at(0), at(kStepMs / 2)});
  (void)slots.try_acquire(kBox, {at(0), at(kStepMs * 3 / 2)});
  std::int64_t t = 0;
  std::int64_t refused = 0;
  std::int64_t granted = 0;
  for (auto _ : state) {
    const bool both_live =
        slots.try_acquire(kBox, {at(t), at(t + 2 * kStepMs)});
    const bool one_ended = slots.try_acquire(
        kBox, {at(t + kStepMs / 2), at(t + kStepMs * 5 / 2)});
    benchmark::DoNotOptimize(both_live);
    benchmark::DoNotOptimize(one_ended);
    refused += both_live ? 0 : 1;
    granted += one_ended ? 1 : 0;
    t += kStepMs;
  }
  if (refused != state.iterations() || granted != state.iterations()) {
    state.SkipWithError("a call had another outcome than the one timed");
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_StreamSlotsTryAcquire);

// One CacheCell::serve_segment, by outcome: 0 = peer hit, 1 = busy miss
// (the only replica's peer is at its stream limit), 2 = cold miss.  The
// misses pass admit = false, so they classify without filling.
void BM_CacheCellServe(benchmark::State& state) {
  const auto outcome = state.range(0);
  state.SetLabel(outcome == 0 ? "hit" : outcome == 1 ? "busy miss"
                                                     : "cold miss");
  constexpr std::uint32_t kPeers = 1000;
  constexpr std::int64_t kSegmentMs = 300'000;
  cache::CacheCell::Settings settings;
  settings.stream_rate = DataRate::megabits_per_second(8.06);
  settings.per_peer_storage = DataSize::gigabytes(10);
  const sim::RateMeter coax(sim::SimTime::days(28),
                            sim::SimTime::minutes(15));
  const trace::Catalog catalog = uniform_catalog(501, 30);
  cache::AccessHistory history;
  cache::CacheCell cell({"LRU", "always",
                         std::make_unique<cache::LruStrategy>(history),
                         nullptr},
                        settings, kPeers, &coax, catalog);
  // Cache one segment of each of 200 programs, one program per session.
  for (std::uint32_t p = 0; p < 200; ++p) {
    const auto t = sim::SimTime::millis(p * kSegmentMs);
    history.record(ProgramId{p}, t);
    const bool admit = cell.start_session(ProgramId{p}, t);
    (void)cell.serve_segment({ProgramId{p}, 0},
                             {t, t + sim::SimTime::millis(kSegmentMs)}, admit,
                             true);
  }
  const cache::SegmentKey stored{ProgramId{7}, 0};
  if (outcome == 1) {
    // Saturate the storing peer for the whole run.
    for (const PeerId peer : cell.store().locate(stored)) {
      for (int s = 0; s < hfc::kPeerStreamLimit; ++s) {
        cell.occupy_viewer_slot(
            peer, {sim::SimTime{},
                   sim::SimTime::millis(
                       std::numeric_limits<std::int64_t>::max())});
      }
    }
  }
  const cache::SegmentKey key =
      outcome == 2 ? cache::SegmentKey{ProgramId{500}, 0} : stored;
  const cache::ServeResult want = outcome == 0   ? cache::ServeResult::PeerHit
                                  : outcome == 1 ? cache::ServeResult::MissBusy
                                                 : cache::ServeResult::MissCold;
  // Back-to-back transmissions: a hit's slot frees before the next one.
  std::uint64_t others = 0;
  std::int64_t t = 200 * kSegmentMs;
  for (auto _ : state) {
    const sim::Interval interval{sim::SimTime::millis(t),
                                 sim::SimTime::millis(t + kSegmentMs)};
    others += cell.serve_segment(key, interval, false, true) != want;
    t += kSegmentMs;
  }
  if (others != 0) {
    state.SkipWithError("a serve had another outcome than the one timed");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheCellServe)->Arg(0)->Arg(1)->Arg(2);

// One new program's session in a CacheCell already at capacity: the
// admission evicts the LRU victim (its whole-program admission and its one
// stored segment), then the session's first segment is a cold miss that
// fills.
// Programs cycle through 4,096 ids, far more than the ~550 that fit, so
// each returns long after its eviction.
void BM_CacheCellFill(benchmark::State& state) {
  constexpr std::uint32_t kPeers = 1000;
  constexpr std::uint32_t kPrograms = 4096;
  constexpr std::int64_t kSegmentMs = 300'000;
  cache::CacheCell::Settings settings;
  settings.stream_rate = DataRate::megabits_per_second(8.06);
  settings.per_peer_storage = DataSize::gigabytes(1);
  const sim::RateMeter coax(sim::SimTime::days(28),
                            sim::SimTime::minutes(15));
  const trace::Catalog catalog = uniform_catalog(kPrograms, 30);
  cache::AccessHistory history;
  cache::CacheCell cell({"LRU", "always",
                         std::make_unique<cache::LruStrategy>(history),
                         nullptr},
                        settings, kPeers, &coax, catalog);
  std::uint32_t next = 0;
  std::int64_t t = 0;
  std::uint64_t cold_misses = 0;
  const auto session = [&] {
    const ProgramId program{next++ % kPrograms};
    const auto start = sim::SimTime::millis(t);
    history.record(program, start);
    const bool admit = cell.start_session(program, start);
    cold_misses +=
        cell.serve_segment({program, 0},
                           {start, start + sim::SimTime::millis(kSegmentMs)},
                           admit, true) == cache::ServeResult::MissCold;
    t += kSegmentMs;
  };
  // Fill to capacity: from here on every admission evicts.
  while (cell.counters().evictions == 0) session();
  const auto before = cell.counters();
  cold_misses = 0;
  for (auto _ : state) session();
  const auto& after = cell.counters();
  const auto iterations = static_cast<std::uint64_t>(state.iterations());
  if (after.fills - before.fills != iterations || cold_misses != iterations ||
      after.evictions - before.evictions < iterations) {
    state.SkipWithError("a session did not evict, miss cold and fill");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheCellFill);

// One neighborhood shard's feed + finish over two days of its sessions in
// hourly batches (the orchestrator's default chunk), with 1 cell (LFU
// alone) or 25 (the shadow matrix: every registered pair).  Items are
// segment transmissions, so ns per item is the shard's cost per segment.
void BM_ShardFeed(benchmark::State& state) {
  trace::GeneratorConfig workload;
  workload.days = 2;
  workload.user_count = 1'000;
  workload.program_count = 1'000;
  const auto trace = trace::generate_power_info_like(workload);
  const auto& catalog = trace.catalog();

  core::SystemConfig config;
  config.neighborhood_size = workload.user_count;
  config.per_peer_storage = DataSize::gigabytes(1);
  config.strategy.kind = core::StrategyKind::Lfu;
  config.shadow_matrix = state.range(0) > 1;
  const auto topology =
      hfc::Topology::build(trace.user_count(), config.neighborhood_size);

  // The matrix's GlobalLFU and Oracle cells read whole-trace products.
  auto board = std::make_shared<cache::ReplayBoard>(
      catalog.size(), config.strategy.lfu_history,
      config.strategy.global_lag);
  cache::FutureIndex future(catalog.size());
  std::vector<std::vector<core::NeighborhoodShard::StreamSession>> batches;
  std::int64_t batch_end = -1;
  std::uint64_t index = 0;
  for (const auto& r : trace.sessions()) {
    board->add(r.program, r.start);
    future.add(r.program, r.start);
    if (r.start.millis_count() >= batch_end) {
      batches.emplace_back();
      batch_end = (r.start.millis_count() / config.stream_chunk.millis_count() +
                   1) * config.stream_chunk.millis_count();
    }
    batches.back().push_back({r, index++, topology.peer_of(r.user)});
  }
  board->freeze();
  future.freeze();

  std::uint64_t segments = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto shard = std::make_unique<core::NeighborhoodShard>(
        NeighborhoodId{0}, topology.size_of(NeighborhoodId{0}), catalog,
        trace.horizon(), config, &future, board,
        std::vector<core::NeighborhoodShard::PendingFailure>{});
    state.ResumeTiming();
    for (const auto& batch : batches) shard->feed(batch);
    shard->finish(sim::SimTime::millis(-1));
    segments += shard->index_server().counters().segments;
    state.PauseTiming();
    shard.reset();
    state.ResumeTiming();
  }
  state.SetLabel(config.shadow_matrix ? "25 cells" : "1 cell");
  state.SetItemsProcessed(static_cast<std::int64_t>(segments));
}
BENCHMARK(BM_ShardFeed)->Arg(1)->Arg(25)->Unit(benchmark::kMillisecond);

// A 40,000-user, 3-day trace: 40 neighborhoods of 1,000.
const trace::Trace& global_trace() {
  static const trace::Trace trace = [] {
    trace::GeneratorConfig workload;
    workload.days = 3;
    workload.user_count = 40'000;
    return trace::generate_power_info_like(workload);
  }();
  return trace;
}

// Building the GlobalLFU board as the prepass does: add() every session
// start of global_trace() in trace order, then freeze(), which indexes
// each program's entries.  Items are board entries.
void BM_ReplayBoardBuild(benchmark::State& state) {
  const auto& trace = global_trace();
  const core::SystemConfig config;
  for (auto _ : state) {
    cache::ReplayBoard board(trace.catalog().size(),
                             config.strategy.lfu_history,
                             config.strategy.global_lag);
    board.reserve(trace.sessions().size());
    for (const auto& r : trace.sessions()) board.add(r.program, r.start);
    board.freeze();
    benchmark::DoNotOptimize(board.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.sessions().size()));
}
BENCHMARK(BM_ReplayBoardBuild)->Unit(benchmark::kMillisecond);

// A board shaped like the 12-day, 166,792-user GlobalLFU run, built once
// as one piece and once sealed into 16 (the prepass chain's most epochs),
// plus sampled GlobalLFU count queries: an admission candidate's count
// between a session start's expiry position (72 h back, the default
// history) and its cut.
struct CountBoards {
  std::unique_ptr<cache::ReplayBoard> one_piece;
  std::unique_ptr<cache::ReplayBoard> sixteen_pieces;
  struct Query {
    ProgramId program;
    std::size_t from;
    std::size_t to;
  };
  std::vector<Query> queries;
};

const CountBoards& count_boards() {
  static const CountBoards boards = [] {
    trace::GeneratorConfig workload;
    workload.days = 12;
    workload.user_count = 166'792;
    const trace::GeneratorSource source(workload);
    const core::SystemConfig config;
    const auto window = config.strategy.lfu_history;
    CountBoards out;
    out.one_piece = std::make_unique<cache::ReplayBoard>(
        source.catalog().size(), window, sim::SimTime{});
    out.sixteen_pieces = std::make_unique<cache::ReplayBoard>(
        source.catalog().size(), window, sim::SimTime{});
    const std::int64_t epoch_ms = source.horizon().millis_count() / 16;
    std::int64_t next_seal_ms = epoch_ms;
    // Every 1,000th session start is a query's cut; the program is the
    // one of the sampled start after it (popularity-weighted, like the
    // candidates a cell compares).
    struct Sample {
      std::size_t index;
      sim::SimTime t;
      ProgramId program;
    };
    std::vector<Sample> samples;
    const auto stream = source.open();
    trace::SessionRecord r;
    std::size_t index = 0;
    while (stream->next(r)) {
      while (r.start.millis_count() >= next_seal_ms) {
        out.sixteen_pieces->seal(sim::SimTime::millis(next_seal_ms));
        next_seal_ms += epoch_ms;
      }
      out.one_piece->add(r.program, r.start);
      out.sixteen_pieces->add(r.program, r.start);
      if (index % 1000 == 0) samples.push_back({index, r.start, r.program});
      ++index;
    }
    out.one_piece->freeze();
    out.sixteen_pieces->freeze();
    for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
      out.queries.push_back(
          {samples[i + 1].program,
           out.one_piece->first_at_or_after(samples[i].t - window, 0),
           samples[i].index + 1});
    }
    return out;
  }();
  return boards;
}

// ReplayBoard::count_between, as a GlobalLFU cell scores an uncached
// candidate: the program's slots at both positions.  Arg: board pieces.
void BM_BoardCountBetween(benchmark::State& state) {
  const auto& boards = count_boards();
  const cache::ReplayBoard& board = state.range(0) == 1
                                        ? *boards.one_piece
                                        : *boards.sixteen_pieces;
  std::size_t q = 0;
  std::int64_t total = 0;
  for (auto _ : state) {
    const auto& query = boards.queries[q];
    total += board.count_between(query.program, query.from, query.to);
    if (++q == boards.queries.size()) q = 0;
  }
  benchmark::DoNotOptimize(total);
  state.SetLabel(std::to_string(board.piece_count()) + " pieces, " +
                 std::to_string(board.size()) + " entries");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BoardCountBetween)->Arg(1)->Arg(16)->Unit(benchmark::kNanosecond);

// One GlobalLFU shard's feed + finish over neighborhood 0 of
// global_trace() in hourly batches, reading the whole deployment's board
// live (arg 0) or with the arg's lag in minutes: the per-shard cost of
// global popularity.  Items are the shard's segment transmissions.
void BM_GlobalLfuShardFeed(benchmark::State& state) {
  const auto& trace = global_trace();
  const auto& catalog = trace.catalog();

  core::SystemConfig config;
  config.neighborhood_size = 1'000;
  config.per_peer_storage = DataSize::gigabytes(1);
  config.strategy.kind = core::StrategyKind::GlobalLfu;
  config.strategy.global_lag = sim::SimTime::minutes(state.range(0));
  const auto topology =
      hfc::Topology::build(trace.user_count(), config.neighborhood_size);

  auto board = std::make_shared<cache::ReplayBoard>(
      catalog.size(), config.strategy.lfu_history,
      config.strategy.global_lag);
  const cache::FutureIndex future;
  std::vector<std::vector<core::NeighborhoodShard::StreamSession>> batches;
  std::int64_t batch_end = -1;
  const auto& records = trace.sessions();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    board->add(r.program, r.start);
    if (topology.neighborhood_of(r.user) != NeighborhoodId{0}) continue;
    if (r.start.millis_count() >= batch_end) {
      batches.emplace_back();
      batch_end = (r.start.millis_count() / config.stream_chunk.millis_count() +
                   1) * config.stream_chunk.millis_count();
    }
    batches.back().push_back({r, i, topology.peer_of(r.user)});
  }
  board->freeze();

  std::uint64_t segments = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto shard = std::make_unique<core::NeighborhoodShard>(
        NeighborhoodId{0}, topology.size_of(NeighborhoodId{0}), catalog,
        trace.horizon(), config, &future, board,
        std::vector<core::NeighborhoodShard::PendingFailure>{});
    state.ResumeTiming();
    for (const auto& batch : batches) shard->feed(batch);
    shard->finish(sim::SimTime::millis(-1));
    segments += shard->index_server().counters().segments;
    benchmark::DoNotOptimize(segments);
    state.PauseTiming();
    shard.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(segments));
}
BENCHMARK(BM_GlobalLfuShardFeed)->Arg(0)->Arg(30)->Unit(benchmark::kMillisecond);

void BM_TraceGeneration(benchmark::State& state) {
  trace::GeneratorConfig config;
  config.days = 1;
  config.user_count = 10'000;
  config.program_count = 2'000;
  for (auto _ : state) {
    const auto trace = trace::generate_power_info_like(config);
    benchmark::DoNotOptimize(trace.session_count());
  }
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

void BM_EndToEndSimulation(benchmark::State& state) {
  trace::GeneratorConfig workload;
  workload.days = 2;
  workload.user_count = 2'000;
  workload.program_count = 500;
  const auto trace = trace::generate_power_info_like(workload);

  core::SystemConfig config;
  config.neighborhood_size = 500;
  config.per_peer_storage = DataSize::gigabytes(2);
  config.strategy.kind = core::StrategyKind::Lfu;

  for (auto _ : state) {
    core::VodSystem system(trace, config);
    const auto report = system.run();
    benchmark::DoNotOptimize(report.segments);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(report.segments));
  }
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
