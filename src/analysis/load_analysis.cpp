#include "analysis/load_analysis.hpp"

namespace vodcache::analysis {

sim::RateMeter demand_meter(const trace::SessionSource& source, DataRate rate,
                            sim::SimTime bucket) {
  sim::RateMeter meter(source.horizon(), bucket);
  auto stream = source.open();
  trace::SessionRecord s;
  while (stream->next(s)) {
    meter.add({s.start, s.start + s.duration}, rate);
  }
  return meter;
}

std::vector<DataRate> demand_hourly_profile(const trace::SessionSource& source,
                                            DataRate rate) {
  return demand_meter(source, rate).hourly_profile();
}

sim::PeakStats demand_peak(const trace::SessionSource& source, DataRate rate,
                           sim::HourWindow window, sim::SimTime from) {
  const auto half_horizon =
      sim::SimTime::millis(source.horizon().millis_count() / 2);
  return sim::peak_stats(demand_meter(source, rate), window,
                         std::min(from, half_horizon));
}

}  // namespace vodcache::analysis
