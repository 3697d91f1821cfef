// Batching-multicast baseline: the quantitative version of the paper's
// section IV-A argument for why it rejects multicast.
//
// The paper argues from two trace properties — heavy popularity skew
// (figure 2: outside a handful of hits, a program draws ~5-13 sessions per
// 15 minutes system-wide, so trees stay tiny) and short attention spans
// (figure 3: half of all sessions die within 8 minutes, shredding tree
// membership).  This module makes the argument measurable: it computes the
// central-server load of an *optimistic* batching multicast and lets the
// benches place it next to the cooperative cache's.
//
// Model (deliberately generous to multicast):
//  * Time is divided into aligned windows of `batch_window`.  All sessions
//    of one program starting in the same window are served by ONE server
//    stream over fiber (viewers are assumed to buffer/patch for free).
//  * The shared stream must run for the *longest* member session (early
//    quitters leave the tree without any repair cost).
//  * On each neighborhood coax, members of the same batch likewise share
//    one local broadcast (the coax is natively multicast).
//
// Every simplification errs in multicast's favor, so when the cooperative
// cache still wins decisively, the paper's design choice is justified a
// fortiori.
#pragma once

#include <cstdint>

#include "sim/peak_stats.hpp"
#include "sim/rate_meter.hpp"
#include "trace/trace.hpp"

namespace vodcache::core {

struct MulticastConfig {
  // Sessions of the same program starting within one aligned window share a
  // stream.  0 = no batching (every session its own stream = unicast).
  sim::SimTime batch_window;
  DataRate stream_rate = DataRate::megabits_per_second(8.06);
};

struct MulticastReport {
  // Central-server (fiber-side) load: one stream per (program, window)
  // batch for the whole system; the fiber is switched, so the server emits
  // one stream per batch and the switch fans it out.  Metered in
  // SystemConfig::meter_bucket buckets, like the cached runs.
  sim::PeakStats server_peak;
  double server_bits = 0.0;
  // Unicast demand for comparison (every session separate).
  double unicast_bits = 0.0;
  std::uint64_t sessions = 0;
  std::uint64_t batches = 0;  // number of (program, window) groups
  // Mean sessions per batch: the paper predicts this stays near 1 outside
  // the head of the popularity distribution.
  [[nodiscard]] double mean_batch_size() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(sessions) /
                              static_cast<double>(batches);
  }
};

// Replays the trace under the batching model.  `window` selects the peak
// window for the reported statistics; `from` excludes warmup (for parity
// with cached runs; the baseline itself has no warmup effects).
[[nodiscard]] MulticastReport simulate_multicast(
    const trace::Trace& trace, const MulticastConfig& config,
    sim::HourWindow window, sim::SimTime from = sim::SimTime{});

}  // namespace vodcache::core
