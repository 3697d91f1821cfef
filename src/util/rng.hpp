// Deterministic random-number generation.
//
// std::<distribution> implementations differ across standard libraries, so a
// simulator that must produce identical traces on every platform implements
// its own: xoshiro256++ as the engine, plus the handful of distributions the
// workload model needs (uniform, Box-Muller normal, log-normal, Poisson,
// Zipf) and a Walker alias table for O(1) categorical sampling.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace vodcache {

// xoshiro256++ 1.0 (Blackman & Vigna), seeded through SplitMix64 so that any
// 64-bit seed, including 0, yields a well-mixed state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0);

  [[nodiscard]] std::uint64_t next_u64();

  // Uniform in [0, n).  n must be positive.  Uses Lemire rejection to avoid
  // modulo bias.
  [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t n);

  // Uniform in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // Uniform in [0, 1).
  [[nodiscard]] double uniform_double();

  // Uniform in [lo, hi).
  [[nodiscard]] double uniform_double(double lo, double hi);

  [[nodiscard]] bool bernoulli(double p);

  // Standard normal via Box-Muller (caches the second variate).
  [[nodiscard]] double normal();
  [[nodiscard]] double normal(double mean, double stddev);

  // exp(N(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma);

  // Knuth multiplication below lambda=30, normal approximation above (the
  // workload model only cares about the first two moments at large lambda).
  [[nodiscard]] std::uint64_t poisson(double lambda);

  // UniformRandomBitGenerator interface for std::shuffle.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() { return next_u64(); }

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

// Walker alias method: O(n) build, O(1) sample from a fixed categorical
// distribution.  Weights need not be normalized; they must be non-negative
// and sum to a positive value.
class AliasTable {
 public:
  AliasTable() = default;
  explicit AliasTable(std::span<const double> weights);

  [[nodiscard]] std::size_t sample(Rng& rng) const;
  [[nodiscard]] std::size_t size() const { return prob_.size(); }
  [[nodiscard]] bool empty() const { return prob_.empty(); }

  // Exact probability of drawing index i (for tests).
  [[nodiscard]] double probability(std::size_t i) const;

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
  std::vector<double> normalized_;
};

// Unnormalized Zipf-Mandelbrot weights:
// weight(k) = 1 / (k + offset)^exponent for ranks 1..n.  offset == 0 gives
// classic Zipf; a positive offset flattens the head, which is what measured
// VoD popularity looks like (Yu et al., EuroSys'06).
[[nodiscard]] std::vector<double> zipf_weights(std::size_t n, double exponent,
                                               double offset = 0.0);

}  // namespace vodcache
