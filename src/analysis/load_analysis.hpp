// Aggregate demand analyses (paper figure 7 and the 17 Gb/s no-cache
// baseline).  These run directly off the workload — no cache simulation —
// because with no cache, server load equals total streaming demand.  Each
// takes any SessionSource, a materialized Trace included, and reads it in
// one pass.
#pragma once

#include <vector>

#include "sim/peak_stats.hpp"
#include "sim/rate_meter.hpp"
#include "trace/trace.hpp"

namespace vodcache::analysis {

// Meters every session of the source at `rate` (each session is one
// continuous stream for its duration).  The meter is O(horizon / bucket);
// only the cursor's state is live.
[[nodiscard]] sim::RateMeter demand_meter(
    const trace::SessionSource& source, DataRate rate,
    sim::SimTime bucket = sim::SimTime::minutes(15));

// Mean demand per hour of day (figure 7's curve).
[[nodiscard]] std::vector<DataRate> demand_hourly_profile(
    const trace::SessionSource& source, DataRate rate);

// Peak-window demand statistics (the "no cache" 17 Gb/s line).  `from`
// restricts measurement to buckets at or after that time, mirroring the
// cached runs' warmup exclusion; it is clamped to half the horizon.
[[nodiscard]] sim::PeakStats demand_peak(const trace::SessionSource& source,
                                         DataRate rate, sim::HourWindow window,
                                         sim::SimTime from = sim::SimTime{});

}  // namespace vodcache::analysis
