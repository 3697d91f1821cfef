// ReplayClock: where a shard's replay of a shared, sorted trace stands.
//
// A sharded simulation partitions the trace by neighborhood but some state
// (global popularity) is defined over the *whole* trace.  Each shard owns a
// ReplayClock and keeps it equal to the serial engine's progress at the
// moment the shard's current event would have run:
//
//   * session-start event for trace record k at time t: now = t,
//     position = k (records 0..k-1 have been replayed system-wide; record k
//     itself is recorded mid-event, by the strategy);
//   * segment-boundary event at time t: now = t, position = index of the
//     first trace record with start >= t (in the serial merge, a boundary
//     at t runs after every session start before t and before any at t).
//
// Consumers (ReplayCursor via GlobalLfuStrategy) read the clock lazily, so
// the plumbing stays out of the EvictionScorer interface.
#pragma once

#include <cstddef>
#include <limits>

#include "sim/time.hpp"

namespace vodcache::sim {

struct ReplayClock {
  SimTime now;
  // Number of trace records replayed system-wide before the current event.
  std::size_t position = 0;
  // How many ReplayBoard entries this shard may scan.  The orchestrator
  // sets this to the watermark the demux wrote for the shard's current
  // feed chunk; the sentinel means "no concurrent writer — clamp to the
  // board's size" (a finished board).
  std::size_t visible = std::numeric_limits<std::size_t>::max();
};

}  // namespace vodcache::sim
