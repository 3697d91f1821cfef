// Empirical CDF over a sample, with the jump-detection the paper used to
// deduce program lengths ("a significant jump occurs at approximately
// 1 hour.  This jump represents the fraction of users that watched the
// entire program", section V-A, figure 6).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vodcache::analysis {

class Ecdf {
 public:
  Ecdf() = default;
  explicit Ecdf(std::span<const double> samples);

  [[nodiscard]] std::size_t size() const { return sorted_.size(); }
  [[nodiscard]] bool empty() const { return sorted_.empty(); }

  // P(X <= x).
  [[nodiscard]] double at(double x) const;
  // Smallest sample value v with P(X <= v) >= q.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  struct Jump {
    double value = 0.0;  // sample value where the CDF jumps
    double mass = 0.0;   // probability mass concentrated at that value
  };

  // Point masses of at least `min_mass`, ascending by value.
  [[nodiscard]] std::vector<Jump> jumps(double min_mass) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace vodcache::analysis
