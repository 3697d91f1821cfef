#include "cache/sketch.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace vodcache::cache {

namespace {

// splitmix64 finalizer: full-avalanche mixing so row indexes derived from
// sequential program ids do not correlate.  Each row perturbs the key with
// a distinct odd constant, which is what makes the rows independent hash
// functions of the same key.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

CountMinSketch::CountMinSketch(std::uint32_t width, std::uint32_t depth,
                               std::uint64_t halve_period)
    : width_(width), depth_(depth), halve_period_(halve_period) {
  VODCACHE_EXPECTS(width > 0);
  VODCACHE_EXPECTS(depth > 0 && depth <= 16);
  VODCACHE_EXPECTS(halve_period > 0);
  counters_.assign(static_cast<std::size_t>(width) * depth, 0);
}

std::size_t CountMinSketch::slot(std::uint32_t row, std::uint64_t key) const {
  const std::uint64_t h = mix(key + 0x632BE59BD9B4E019ULL * (row + 1));
  // Multiply-shift range reduction: uniform over [0, width) without the
  // modulo bias a power-of-two mask would need width to avoid.
  const auto column = static_cast<std::uint32_t>(
      (static_cast<unsigned __int128>(h) * width_) >> 64);
  return static_cast<std::size_t>(row) * width_ + column;
}

void CountMinSketch::increment(std::uint64_t key) {
  for (std::uint32_t row = 0; row < depth_; ++row) {
    auto& counter = counters_[slot(row, key)];
    if (counter < std::numeric_limits<std::uint32_t>::max()) ++counter;
  }
  if (++since_halve_ >= halve_period_) {
    since_halve_ = 0;
    halve();
  }
}

std::uint32_t CountMinSketch::estimate(std::uint64_t key) const {
  std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t row = 0; row < depth_; ++row) {
    best = std::min(best, counters_[slot(row, key)]);
  }
  return best;
}

void CountMinSketch::halve() {
  for (auto& counter : counters_) counter >>= 1;
}

}  // namespace vodcache::cache
