#include "sim/rate_meter.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vodcache::sim {

RateMeter::RateMeter(SimTime horizon, SimTime bucket)
    : horizon_(horizon), bucket_(bucket) {
  VODCACHE_EXPECTS(horizon.millis_count() > 0);
  VODCACHE_EXPECTS(bucket.millis_count() > 0);
  const auto n = (horizon.millis_count() + bucket.millis_count() - 1) /
                 bucket.millis_count();
  bits_.assign(static_cast<std::size_t>(n), 0.0);
}

void RateMeter::add(Interval interval, DataRate rate) {
  VODCACHE_EXPECTS(interval.valid());
  VODCACHE_EXPECTS(rate.bps() >= 0.0);
  if (rate.bps() == 0.0) return;

  std::int64_t begin_ms = interval.begin.millis_count();
  std::int64_t end_ms = interval.end.millis_count();
  const std::int64_t horizon_ms = horizon_.millis_count();

  // Clip to [0, horizon).
  begin_ms = std::max(begin_ms, std::int64_t{0});
  end_ms = std::min(end_ms, horizon_ms);
  if (begin_ms >= end_ms) return;

  const std::int64_t bucket_ms = bucket_.millis_count();
  auto i = static_cast<std::size_t>(begin_ms / bucket_ms);
  std::int64_t cursor = begin_ms;
  while (cursor < end_ms) {
    const std::int64_t bucket_end = (static_cast<std::int64_t>(i) + 1) * bucket_ms;
    const std::int64_t slice_end = std::min(bucket_end, end_ms);
    bits_[i] += rate.bps() * static_cast<double>(slice_end - cursor) / 1000.0;
    cursor = slice_end;
    ++i;
  }
}

SimTime RateMeter::bucket_begin(std::size_t i) const {
  VODCACHE_EXPECTS(i < bits_.size());
  return SimTime::millis(static_cast<std::int64_t>(i) * bucket_.millis_count());
}

double RateMeter::bucket_bits(std::size_t i) const {
  VODCACHE_EXPECTS(i < bits_.size());
  return bits_[i];
}

double RateMeter::bucket_seconds(std::size_t i) const {
  VODCACHE_EXPECTS(i < bits_.size());
  const auto begin_ms = static_cast<std::int64_t>(i) * bucket_.millis_count();
  const auto end_ms =
      std::min(begin_ms + bucket_.millis_count(), horizon_.millis_count());
  return static_cast<double>(end_ms - begin_ms) / 1000.0;
}

DataRate RateMeter::bucket_rate(std::size_t i) const {
  return DataRate::bits_per_second(bucket_bits(i) / bucket_seconds(i));
}

DataRate RateMeter::rate_at(SimTime t) const {
  VODCACHE_EXPECTS(t >= SimTime{} && t < horizon_);
  return bucket_rate(
      static_cast<std::size_t>(t.millis_count() / bucket_.millis_count()));
}

double RateMeter::total_bits() const {
  double sum = 0.0;
  for (const double b : bits_) sum += b;
  return sum;
}

std::vector<DataRate> RateMeter::hourly_profile(SimTime from) const {
  std::vector<double> bits_per_hour(24, 0.0);
  std::vector<double> seconds_per_hour(24, 0.0);
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    if (bucket_begin(i) < from) continue;
    const int hour = bucket_begin(i).hour_of_day();
    bits_per_hour[hour] += bits_[i];
    seconds_per_hour[hour] += bucket_seconds(i);
  }
  std::vector<DataRate> profile(24);
  for (int h = 0; h < 24; ++h) {
    profile[h] = seconds_per_hour[h] > 0.0
                     ? DataRate::bits_per_second(bits_per_hour[h] /
                                                 seconds_per_hour[h])
                     : DataRate{};
  }
  return profile;
}

std::vector<double> RateMeter::window_samples_bps(HourWindow window,
                                                  SimTime from) const {
  std::vector<double> samples;
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    if (bucket_begin(i) >= from && window.contains(bucket_begin(i))) {
      samples.push_back(bits_[i] / bucket_seconds(i));
    }
  }
  return samples;
}

void RateMeter::merge(const RateMeter& other) {
  VODCACHE_EXPECTS(other.bits_.size() == bits_.size());
  VODCACHE_EXPECTS(other.bucket_ == bucket_);
  for (std::size_t i = 0; i < bits_.size(); ++i) bits_[i] += other.bits_[i];
}

}  // namespace vodcache::sim
