// Bandwidth accounting.
//
// A RateMeter covers the whole simulated horizon with fixed-width buckets
// (default 15 minutes, the granularity of the paper's figure 2 and of its
// peak-hour quantile error bars).  A transmission contributes
// rate x overlap-duration bits to every bucket it spans, so total bits are
// conserved exactly regardless of bucket width.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/units.hpp"

namespace vodcache::sim {

class RateMeter {
 public:
  // Meters the interval [0, horizon) with buckets of `bucket` width.
  RateMeter(SimTime horizon, SimTime bucket = SimTime::minutes(15));

  // Account a transmission at `rate` over `interval`.  Portions outside the
  // metered horizon are clipped.
  void add(Interval interval, DataRate rate);

  [[nodiscard]] SimTime horizon() const { return horizon_; }

  [[nodiscard]] SimTime bucket_begin(std::size_t i) const;
  [[nodiscard]] double bucket_bits(std::size_t i) const;
  // Seconds of the metered horizon that bucket i covers: the nominal
  // bucket width, except the final bucket when the horizon is not a
  // bucket multiple — that one is clipped at the horizon, and every
  // average below divides by the clipped width (a wire carrying rate r
  // for the whole covered span reports r, not r x covered/nominal).
  [[nodiscard]] double bucket_seconds(std::size_t i) const;
  // Average rate sustained during (the covered part of) bucket i.
  [[nodiscard]] DataRate bucket_rate(std::size_t i) const;

  // Average rate of the bucket containing `t` (the coax-headroom admission
  // gate's query).  `t` must lie inside the metered horizon [0, horizon);
  // a `t` exactly on a bucket boundary reads the bucket *beginning* there
  // (half-open buckets, like every interval in the simulator).  Before
  // any add() the meter is all zeros, so early queries return 0.
  [[nodiscard]] DataRate rate_at(SimTime t) const;

  [[nodiscard]] double total_bits() const;

  // Mean rate by hour of day (24 entries), averaged over all simulated days
  // whose buckets start at or after `from` (cache warmup exclusion).
  [[nodiscard]] std::vector<DataRate> hourly_profile(
      SimTime from = SimTime{}) const;

  // Per-bucket average rates (bps) for buckets whose start falls inside the
  // hour window and at or after `from` — the sample population behind the
  // paper's error bars.
  [[nodiscard]] std::vector<double> window_samples_bps(
      HourWindow window, SimTime from = SimTime{}) const;

  // Merge another meter bucket-by-bucket (must have identical geometry).
  void merge(const RateMeter& other);

 private:
  SimTime horizon_;
  SimTime bucket_;
  std::vector<double> bits_;
};

}  // namespace vodcache::sim
