// Data-size and data-rate value types.
//
// The paper mixes Mb/s, Gb/s, GB and TB freely; keeping bits and bytes in
// distinct types removes the classic 8x error class at compile time.
// Sizes are held in bits internally (std::int64_t: 2^63 bits ~ 1 EB, ample).
#pragma once

#include <compare>
#include <cstdint>

#include "util/assert.hpp"

namespace vodcache {

// An amount of data.  Constructed explicitly from bits or bytes.
class DataSize {
 public:
  constexpr DataSize() = default;

  [[nodiscard]] static constexpr DataSize bits(std::int64_t b) {
    return DataSize{b};
  }
  [[nodiscard]] static constexpr DataSize bytes(std::int64_t b) {
    return DataSize{b * 8};
  }
  [[nodiscard]] static constexpr DataSize kilobytes(std::int64_t kb) {
    return bytes(kb * 1000);
  }
  [[nodiscard]] static constexpr DataSize megabytes(std::int64_t mb) {
    return bytes(mb * 1000 * 1000);
  }
  [[nodiscard]] static constexpr DataSize gigabytes(std::int64_t gb) {
    return bytes(gb * 1000 * 1000 * 1000);
  }

  [[nodiscard]] constexpr std::int64_t bit_count() const { return bits_; }
  [[nodiscard]] constexpr double byte_count() const {
    return static_cast<double>(bits_) / 8.0;
  }
  [[nodiscard]] constexpr double as_gigabytes() const {
    return byte_count() / 1e9;
  }
  [[nodiscard]] constexpr double as_terabytes() const {
    return byte_count() / 1e12;
  }

  // True when `*this * n` fits the int64 bit count — callers validating
  // untrusted capacity products (per-peer storage x peer count) check this
  // before multiplying, since operator* itself does not.  Both operands
  // must be nonnegative; negative products are outside the contract.
  [[nodiscard]] constexpr bool multipliable_by(std::int64_t n) const {
    VODCACHE_EXPECTS(bits_ >= 0 && n >= 0);
    if (n == 0 || bits_ == 0) return true;
    return bits_ <= INT64_MAX / n;
  }

  friend constexpr auto operator<=>(DataSize, DataSize) = default;

  constexpr DataSize& operator+=(DataSize o) {
    bits_ += o.bits_;
    return *this;
  }
  constexpr DataSize& operator-=(DataSize o) {
    bits_ -= o.bits_;
    return *this;
  }
  friend constexpr DataSize operator+(DataSize a, DataSize b) {
    return DataSize{a.bits_ + b.bits_};
  }
  friend constexpr DataSize operator-(DataSize a, DataSize b) {
    return DataSize{a.bits_ - b.bits_};
  }
  friend constexpr DataSize operator*(DataSize a, std::int64_t n) {
    return DataSize{a.bits_ * n};
  }

 private:
  constexpr explicit DataSize(std::int64_t bits) : bits_(bits) {}
  std::int64_t bits_ = 0;
};

// A data rate in bits per second.
class DataRate {
 public:
  constexpr DataRate() = default;

  [[nodiscard]] static constexpr DataRate bits_per_second(double bps) {
    return DataRate{bps};
  }
  [[nodiscard]] static constexpr DataRate megabits_per_second(double mbps) {
    return DataRate{mbps * 1e6};
  }
  [[nodiscard]] static constexpr DataRate gigabits_per_second(double gbps) {
    return DataRate{gbps * 1e9};
  }

  [[nodiscard]] constexpr double bps() const { return bps_; }
  [[nodiscard]] constexpr double mbps() const { return bps_ / 1e6; }
  [[nodiscard]] constexpr double gbps() const { return bps_ / 1e9; }

  // Data transferred when sustaining this rate for `seconds`.
  [[nodiscard]] DataSize over_seconds(double seconds) const {
    VODCACHE_EXPECTS(seconds >= 0.0);
    return DataSize::bits(static_cast<std::int64_t>(bps_ * seconds + 0.5));
  }

  friend constexpr auto operator<=>(DataRate, DataRate) = default;
  friend constexpr DataRate operator+(DataRate a, DataRate b) {
    return DataRate{a.bps_ + b.bps_};
  }
  friend constexpr DataRate operator-(DataRate a, DataRate b) {
    return DataRate{a.bps_ - b.bps_};
  }
  friend constexpr DataRate operator*(DataRate a, double k) {
    return DataRate{a.bps_ * k};
  }

 private:
  constexpr explicit DataRate(double bps) : bps_(bps) {}
  double bps_ = 0.0;
};

}  // namespace vodcache
