// Set-top box model.
//
// The paper's peers are the STBs cable companies already deploy: always-on
// (no churn), a fixed storage contribution to the neighborhood cache
// (<= 10 GB of a ~40 GB disk), and at most two concurrently active streams
// in either direction (section V-C).  Storage *contents* are tracked by
// cache::SegmentStore; StreamSlots tracks every box's stream occupancy.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace vodcache::hfc {

// "Typical set top boxes cannot receive data on more than two logical
// channels ... limit each set top box so that it can only be active on
// two streams" (section V-C): how many transmissions one box may serve at
// once.
inline constexpr int kPeerStreamLimit = 2;

// Concurrent-transmission bookkeeping for all the boxes of one cache cell,
// in one flat array of `peer_count * limit` end times (`limit >= 1`).
//
// A box refuses a serve at `begin` exactly when at least `limit` of its
// transmissions end after `begin` — that is, when its `limit`-th latest end
// is after `begin`.  So each box keeps only its `limit` latest ends (a
// sentinel earlier than any time fills a lane not yet used): acquiring
// overwrites the earliest kept end, and an end that is no longer among the
// latest `limit` can never decide an answer again.  Nothing is pruned and
// nothing is allocated after construction.  The answers equal those of a
// model that drops the ends at or before each query time and counts the
// rest, provided query times (`interval.begin`) never decrease within one
// table; a shard replays its events in time order, so they do not.
class StreamSlots {
 public:
  StreamSlots(std::uint32_t peer_count, int limit);

  // Acquire a slot on `peer` for `interval` iff the limit allows; returns
  // success.
  [[nodiscard]] bool try_acquire(std::uint32_t peer, sim::Interval interval);

  // Acquire regardless of the limit.  Used for viewer playback: the trace
  // is ground truth for what users watched, so playback is never blocked,
  // but it still occupies a slot that counts when this box is asked to
  // *serve* (the serving side is where the paper enforces the limit).
  void acquire_unchecked(std::uint32_t peer, sim::Interval interval);

  [[nodiscard]] std::uint32_t peer_count() const { return peer_count_; }

 private:
  // The earliest of `peer`'s kept ends.
  [[nodiscard]] sim::SimTime* earliest(std::uint32_t peer);

  std::uint32_t peer_count_;
  int limit_;
  std::vector<sim::SimTime> ends_;
};

}  // namespace vodcache::hfc
