// Simulated time.
//
// Time is an integer count of milliseconds since the trace epoch (midnight
// of day 0).  Integer ticks keep the event queue ordering exact and the
// simulation bit-for-bit reproducible across platforms.
#pragma once

#include <compare>
#include <cstdint>

#include "util/assert.hpp"

namespace vodcache::sim {

class SimTime {
 public:
  constexpr SimTime() = default;

  [[nodiscard]] static constexpr SimTime millis(std::int64_t ms) {
    return SimTime{ms};
  }
  [[nodiscard]] static constexpr SimTime seconds(std::int64_t s) {
    return SimTime{s * 1000};
  }
  [[nodiscard]] static constexpr SimTime minutes(std::int64_t m) {
    return seconds(m * 60);
  }
  [[nodiscard]] static constexpr SimTime hours(std::int64_t h) {
    return minutes(h * 60);
  }
  [[nodiscard]] static constexpr SimTime days(std::int64_t d) {
    return hours(d * 24);
  }
  // Nearest-millisecond conversion from fractional seconds.
  [[nodiscard]] static SimTime from_seconds_f(double s) {
    return SimTime{static_cast<std::int64_t>(s * 1000.0 + (s >= 0 ? 0.5 : -0.5))};
  }

  [[nodiscard]] constexpr std::int64_t millis_count() const { return ms_; }
  [[nodiscard]] constexpr double seconds_f() const {
    return static_cast<double>(ms_) / 1000.0;
  }
  [[nodiscard]] constexpr double minutes_f() const { return seconds_f() / 60.0; }
  [[nodiscard]] constexpr double hours_f() const { return seconds_f() / 3600.0; }
  [[nodiscard]] constexpr double days_f() const { return hours_f() / 24.0; }

  // Hour of day, 0..23.
  [[nodiscard]] constexpr int hour_of_day() const {
    return static_cast<int>((ms_ / hours(1).millis_count()) % 24);
  }

  friend constexpr auto operator<=>(SimTime, SimTime) = default;
  friend constexpr SimTime operator+(SimTime a, SimTime b) {
    return SimTime{a.ms_ + b.ms_};
  }
  friend constexpr SimTime operator-(SimTime a, SimTime b) {
    return SimTime{a.ms_ - b.ms_};
  }
  constexpr SimTime& operator+=(SimTime o) {
    ms_ += o.ms_;
    return *this;
  }

 private:
  constexpr explicit SimTime(std::int64_t ms) : ms_(ms) {}
  std::int64_t ms_ = 0;
};

// Length of a half-open simulated interval [begin, end).
struct Interval {
  SimTime begin;
  SimTime end;

  [[nodiscard]] constexpr double duration_seconds() const {
    return (end - begin).seconds_f();
  }
  [[nodiscard]] constexpr bool valid() const { return end >= begin; }
};

// An hour-of-day window [begin_hour, end_hour), e.g. the paper's evening
// peak.  Wrapping windows (22 -> 2) are supported.
class HourWindow {
 public:
  constexpr HourWindow(int begin_hour, int end_hour)
      : begin_(begin_hour), end_(end_hour) {
    VODCACHE_EXPECTS(begin_hour >= 0 && begin_hour < 24);
    VODCACHE_EXPECTS(end_hour >= 0 && end_hour <= 24);
  }

  [[nodiscard]] constexpr bool contains(SimTime t) const {
    const int h = t.hour_of_day();
    if (begin_ <= end_) return h >= begin_ && h < end_;
    return h >= begin_ || h < end_;
  }

  [[nodiscard]] constexpr int begin_hour() const { return begin_; }
  [[nodiscard]] constexpr int end_hour() const { return end_; }
  constexpr bool operator==(const HourWindow&) const = default;

 private:
  int begin_;
  int end_;
};

}  // namespace vodcache::sim
