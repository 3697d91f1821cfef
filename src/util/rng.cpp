#include "util/rng.hpp"

#include <cmath>
#include <numbers>
#include <numeric>

namespace vodcache {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::uniform_u64(std::uint64_t n) {
  VODCACHE_EXPECTS(n > 0);
  // Lemire's nearly-divisionless method.
  __uint128_t m = static_cast<__uint128_t>(next_u64()) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
    while (lo < threshold) {
      m = static_cast<__uint128_t>(next_u64()) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  VODCACHE_EXPECTS(lo <= hi);
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // span==0 means the full 64-bit range [INT64_MIN, INT64_MAX].
  const std::uint64_t draw = (span == 0) ? next_u64() : uniform_u64(span);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + draw);
}

double Rng::uniform_double() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform_double(double lo, double hi) {
  VODCACHE_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform_double();
}

bool Rng::bernoulli(double p) { return uniform_double() < p; }

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 is kept away from 0 so log() is finite.
  double u1 = uniform_double();
  while (u1 <= 0x1.0p-60) u1 = uniform_double();
  const double u2 = uniform_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  VODCACHE_EXPECTS(stddev >= 0.0);
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

std::uint64_t Rng::poisson(double lambda) {
  VODCACHE_EXPECTS(lambda >= 0.0);
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    const double limit = std::exp(-lambda);
    std::uint64_t k = 0;
    double product = uniform_double();
    while (product > limit) {
      ++k;
      product *= uniform_double();
    }
    return k;
  }
  // Normal approximation with continuity correction; adequate above 30.
  const double draw = normal(lambda, std::sqrt(lambda));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

AliasTable::AliasTable(std::span<const double> weights) {
  VODCACHE_EXPECTS(!weights.empty());
  const std::size_t n = weights.size();
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  VODCACHE_EXPECTS(total > 0.0);

  normalized_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    VODCACHE_EXPECTS(weights[i] >= 0.0);
    normalized_[i] = weights[i] / total;
  }

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = normalized_[i] * static_cast<double>(n);
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (const std::uint32_t i : large) prob_[i] = 1.0;
  for (const std::uint32_t i : small) prob_[i] = 1.0;  // numerical leftovers
}

std::size_t AliasTable::sample(Rng& rng) const {
  VODCACHE_EXPECTS(!prob_.empty());
  const std::size_t column = rng.uniform_u64(prob_.size());
  return rng.uniform_double() < prob_[column] ? column : alias_[column];
}

double AliasTable::probability(std::size_t i) const {
  VODCACHE_EXPECTS(i < normalized_.size());
  return normalized_[i];
}

std::vector<double> zipf_weights(std::size_t n, double exponent,
                                 double offset) {
  VODCACHE_EXPECTS(n > 0);
  VODCACHE_EXPECTS(exponent >= 0.0);
  VODCACHE_EXPECTS(offset >= 0.0);
  std::vector<double> w(n);
  for (std::size_t k = 0; k < n; ++k) {
    w[k] = 1.0 / std::pow(static_cast<double>(k + 1) + offset, exponent);
  }
  return w;
}

}  // namespace vodcache
