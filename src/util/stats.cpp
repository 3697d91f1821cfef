#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace vodcache {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double sum = 0.0;
  for (const double x : xs) sum += (x - m) * (x - m);
  return sum / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

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

double quantile(std::span<const double> xs, double q) {
  VODCACHE_EXPECTS(!xs.empty());
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  return quantile_sorted(copy, q);
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  s.count = copy.size();
  s.mean = mean(copy);
  s.min = copy.front();
  s.max = copy.back();
  s.q05 = quantile_sorted(copy, 0.05);
  s.median = quantile_sorted(copy, 0.50);
  s.q95 = quantile_sorted(copy, 0.95);
  return s;
}

}  // namespace vodcache
