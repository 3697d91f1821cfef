// Set-top box model.
//
// The paper's peers are the STBs cable companies already deploy: always-on
// (no churn), a fixed storage contribution to the neighborhood cache
// (<= 10 GB of a ~40 GB disk), and at most two concurrently active streams
// in either direction (section V-C).  Storage *contents* are tracked by
// cache::SegmentStore; StreamSlots tracks a box's stream occupancy.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/time.hpp"

namespace vodcache::hfc {

// Concurrent-transmission bookkeeping for one device.  Transmissions are
// intervals; expired ones are pruned lazily as the clock (queries are
// monotone in simulation time) moves past their end.
class StreamSlots {
 public:
  explicit StreamSlots(int limit);

  // Number of transmissions still active at `now`.
  [[nodiscard]] int active(sim::SimTime now);

  // Acquire a slot for `interval` iff the limit allows; returns success.
  [[nodiscard]] bool try_acquire(sim::Interval interval);

  // Acquire regardless of the limit.  Used for viewer playback: the trace
  // is ground truth for what users watched, so playback is never blocked,
  // but it still occupies a slot that counts when this box is asked to
  // *serve* (the serving side is where the paper enforces the limit).
  void acquire_unchecked(sim::Interval interval);

 private:
  void prune(sim::SimTime now);

  int limit_;
  std::vector<sim::SimTime> active_ends_;
};

}  // namespace vodcache::hfc
