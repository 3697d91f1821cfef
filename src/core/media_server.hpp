// The cable operator's central media server (paper figure 1, top of the
// hierarchy).  Every cache miss streams from here over the switched fiber
// network; the whole evaluation measures the rate this server must sustain.
//
// Under sharded execution each NeighborhoodShard streams its misses into a
// private MediaServer (one neighborhood's slice of the central load); the
// orchestrator then reduces the slices with merge(), in shard-index order,
// into the one server the report describes.
#pragma once

#include "sim/rate_meter.hpp"
#include "util/units.hpp"

namespace vodcache::core {

class MediaServer {
 public:
  MediaServer(sim::SimTime horizon, sim::SimTime bucket);

  // Stream one segment transmission to a headend.
  void serve(sim::Interval interval, DataRate rate);

  // Fold another server's traffic into this one (identical meter geometry
  // required).  Merge order must be deterministic — bucket bits are
  // doubles, so a fixed reduction order is part of the bit-identical
  // parallel-replay guarantee.
  void merge(const MediaServer& other);

  [[nodiscard]] const sim::RateMeter& meter() const { return meter_; }

 private:
  sim::RateMeter meter_;
};

}  // namespace vodcache::core
