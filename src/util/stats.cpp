#include "util/stats.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vodcache {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double quantile_sorted(std::span<const double> sorted, double q) {
  VODCACHE_EXPECTS(q >= 0.0 && q <= 1.0);
  VODCACHE_EXPECTS(!sorted.empty());
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace vodcache
