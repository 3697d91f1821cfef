// Descriptive statistics used throughout the evaluation: means, quantiles
// (the paper's error bars are 5%/95% quantiles), and empirical CDFs
// (figures 3 and 6 are ECDFs).
#pragma once

#include <cstddef>
#include <span>

namespace vodcache {

[[nodiscard]] double mean(std::span<const double> xs);

// Linear-interpolation quantile (type 7, the numpy/R default) of an
// ascending-sorted sample; q in [0,1].
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q);

}  // namespace vodcache
