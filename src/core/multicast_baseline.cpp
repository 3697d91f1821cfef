#include "core/multicast_baseline.hpp"

#include <unordered_map>

#include "core/config.hpp"
#include "util/assert.hpp"

namespace vodcache::core {

namespace {

struct BatchKey {
  std::uint32_t program;
  std::int64_t window_index;

  friend bool operator==(BatchKey, BatchKey) = default;
};

struct BatchKeyHash {
  std::size_t operator()(BatchKey key) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(key.program) << 32) ^
        static_cast<std::uint64_t>(key.window_index));
  }
};

struct Batch {
  sim::SimTime start;  // earliest member start
  sim::SimTime end;    // latest member end
};

}  // namespace

MulticastReport simulate_multicast(const trace::Trace& trace,
                                   const MulticastConfig& config,
                                   sim::HourWindow window, sim::SimTime from) {
  VODCACHE_EXPECTS(config.batch_window >= sim::SimTime{});

  MulticastReport report;
  report.sessions = trace.session_count();

  // Group sessions into (program, aligned window) batches.  The shared
  // stream spans from the first member's start to the latest member's end:
  // late joiners are assumed to catch up from peers'/set-tops' buffers for
  // free (optimistic).
  std::unordered_map<BatchKey, Batch, BatchKeyHash> batches;
  const std::int64_t window_ms = config.batch_window.millis_count();
  std::int64_t next_unique = 0;  // distinct key space for unbatched mode
  for (const auto& s : trace.sessions()) {
    BatchKey key{s.program.value(),
                 window_ms > 0 ? s.start.millis_count() / window_ms
                               : next_unique++};
    const auto end = s.start + s.duration;
    auto [it, inserted] = batches.try_emplace(key, Batch{s.start, end});
    if (!inserted) {
      if (s.start < it->second.start) it->second.start = s.start;
      if (end > it->second.end) it->second.end = end;
    }
    report.unicast_bits +=
        config.stream_rate.bps() * s.duration.seconds_f();
  }
  report.batches = batches.size();

  sim::RateMeter meter(trace.horizon(), SystemConfig::meter_bucket);
  for (const auto& [key, batch] : batches) {
    meter.add({batch.start, batch.end}, config.stream_rate);
  }
  report.server_bits = meter.total_bits();
  report.server_peak = sim::peak_stats(meter, window, from);
  return report;
}

}  // namespace vodcache::core
