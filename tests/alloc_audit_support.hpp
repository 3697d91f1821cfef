// Shard-level steady-state allocation audit harness.
//
// Drives one NeighborhoodShard directly — no orchestrator, no worker pool,
// no per-chunk batch vectors — so the only allocations in the measured
// region are the shard's own.  The audited claim (ISSUE 7 / the data-
// oriented hot path): after a warmup that has (a) touched the content set,
// (b) filled the cache into eviction churn, and (c) carried the session
// population through its daily peak, the feed() loop performs ZERO heap
// allocations per event — every table, arena, ring, heap, and scratch
// buffer has reached its high-water mark and recycles.
//
// The binary including this header must expand VODCACHE_DEFINE_ALLOC_PROBE()
// in exactly one translation unit (see alloc_probe.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "alloc_probe.hpp"
#include "core/neighborhood_shard.hpp"
#include "hfc/topology.hpp"
#include "trace/trace.hpp"

namespace vodcache::test {

struct ShardAuditResult {
  std::uint64_t steady_allocs = 0;  // operator new calls after warmup
  std::uint64_t steady_sessions = 0;  // sessions fed after warmup (witness
                                      // that the measured region is real)
};

// Replays neighborhood 0's slice of `trace` through one NeighborhoodShard
// in small batches; allocations are counted for every feed() at or after
// `warmup_end` (the cut lands on a batch boundary).  The audited claim is
// about feed(), so finish() runs outside the measured region.
inline ShardAuditResult audit_shard_allocations(
    const trace::Trace& trace, const core::SystemConfig& config,
    sim::SimTime warmup_end) {
  const auto topology =
      hfc::Topology::build(trace.user_count(), config.neighborhood_size);

  std::vector<core::NeighborhoodShard::StreamSession> sessions;
  const auto& records = trace.sessions();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (topology.neighborhood_of(records[i].user) != NeighborhoodId{0}) {
      continue;
    }
    sessions.push_back({records[i], i, topology.peer_of(records[i].user)});
  }

  // An Oracle primary needs the future index, a GlobalLFU primary the
  // replay board, and shadow-matrix mode instantiates every registered
  // scorer so it needs both — built and frozen here before the shard
  // replays, exactly as the orchestrator's prepass does (outside the
  // measured region either way).
  const bool needs_future =
      config.shadow_matrix ||
      config.strategy.kind == core::StrategyKind::Oracle;
  const bool needs_board =
      config.shadow_matrix ||
      config.strategy.kind == core::StrategyKind::GlobalLfu;
  cache::FutureIndex future(needs_future ? trace.catalog().size() : 0);
  std::shared_ptr<cache::ReplayBoard> board;
  if (needs_future) {
    for (const auto& session : sessions) {
      future.add(session.record.program, session.record.start);
    }
  }
  future.freeze();
  if (needs_board) {
    auto replay = std::make_shared<cache::ReplayBoard>(
        trace.catalog().size(), config.strategy.lfu_history,
        config.strategy.global_lag);
    for (const auto& record : records) {
      replay->add(record.program, record.start);
    }
    replay->freeze();
    board = std::move(replay);
  }
  core::NeighborhoodShard shard(
      NeighborhoodId{0}, topology.size_of(NeighborhoodId{0}), trace.catalog(),
      trace.horizon(), config, &future, std::move(board), {});

  constexpr std::size_t kBatch = 256;
  const auto feed_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; i += kBatch) {
      shard.feed({sessions.data() + i, std::min(kBatch, end - i)});
    }
  };

  std::size_t cut = 0;
  while (cut < sessions.size() && sessions[cut].record.start < warmup_end) {
    ++cut;
  }

  feed_range(0, cut);
  const std::uint64_t before = alloc_count();
  feed_range(cut, sessions.size());

  ShardAuditResult result;
  result.steady_allocs = alloc_count() - before;
  result.steady_sessions = sessions.size() - cut;
  shard.finish(sim::SimTime::millis(-1));
  return result;
}

}  // namespace vodcache::test
