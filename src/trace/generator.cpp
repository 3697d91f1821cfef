#include "trace/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/assert.hpp"

namespace vodcache::trace {

void GeneratorConfig::validate() const {
  VODCACHE_EXPECTS(days > 0);
  VODCACHE_EXPECTS(user_count > 0);
  VODCACHE_EXPECTS(program_count > 0);
  VODCACHE_EXPECTS(sessions_per_user_per_day > 0.0);
  VODCACHE_EXPECTS(zipf_exponent >= 0.0);
  VODCACHE_EXPECTS(zipf_offset >= 0.0);
  VODCACHE_EXPECTS(freshness_boost >= 0.0);
  VODCACHE_EXPECTS(freshness_damping >= 0.0 && freshness_damping <= 1.0);
  VODCACHE_EXPECTS(freshness_floor > 0.0);
  VODCACHE_EXPECTS(freshness_tau_days > 0.0);
  VODCACHE_EXPECTS(back_catalog_fraction >= 0.0 && back_catalog_fraction <= 1.0);
  VODCACHE_EXPECTS(popularity_rebuild_hours > 0.0);
  VODCACHE_EXPECTS(session_median_minutes > 0.0);
  VODCACHE_EXPECTS(session_sigma > 0.0);
  VODCACHE_EXPECTS(min_session_seconds > 0.0);
  double hour_sum = 0.0;
  for (const double w : hourly_weights) {
    VODCACHE_EXPECTS(w >= 0.0);
    hour_sum += w;
  }
  VODCACHE_EXPECTS(hour_sum > 0.0);
  double p_sum = 0.0;
  for (const auto& bucket : length_mix) {
    VODCACHE_EXPECTS(bucket.minutes > 0.0);
    VODCACHE_EXPECTS(bucket.probability >= 0.0);
    p_sum += bucket.probability;
  }
  VODCACHE_EXPECTS(std::abs(p_sum - 1.0) < 1e-9);
}

double popularity_weight_at(const ProgramInfo& program, sim::SimTime t,
                            const GeneratorConfig& config) {
  if (t < program.introduced) return 0.0;
  const double age_days = (t - program.introduced).days_f();
  return program.base_weight * config.freshness_floor +
         config.freshness_boost * program.fresh_weight *
             std::exp(-age_days / config.freshness_tau_days);
}

namespace {

Catalog build_catalog(const GeneratorConfig& config, Rng& rng) {
  std::vector<ProgramInfo> programs(config.program_count);

  // Length mix as a small alias table.
  std::vector<double> length_probs;
  length_probs.reserve(config.length_mix.size());
  for (const auto& bucket : config.length_mix) {
    length_probs.push_back(bucket.probability);
  }
  const AliasTable length_sampler(length_probs);

  // Zipf-Mandelbrot base weights assigned to a random permutation of
  // program ids, so that popularity rank is independent of id order.
  const auto weights = zipf_weights(config.program_count, config.zipf_exponent,
                                    config.zipf_offset);
  std::vector<std::uint32_t> rank_of(config.program_count);
  std::iota(rank_of.begin(), rank_of.end(), 0U);
  std::shuffle(rank_of.begin(), rank_of.end(), rng);

  const double mean_base =
      std::accumulate(weights.begin(), weights.end(), 0.0) /
      static_cast<double>(weights.size());

  const auto horizon_days = static_cast<double>(config.days);
  for (std::uint32_t i = 0; i < config.program_count; ++i) {
    auto& p = programs[i];
    const auto& bucket = config.length_mix[length_sampler.sample(rng)];
    p.length = sim::SimTime::from_seconds_f(bucket.minutes * 60.0);
    p.base_weight = weights[rank_of[i]];
    // Rank-damped release spike (see GeneratorConfig docs): scale-invariant
    // in the weight normalization, bounded at the head.
    p.fresh_weight = std::pow(p.base_weight, config.freshness_damping) *
                     std::pow(mean_base, 1.0 - config.freshness_damping);
    if (rng.uniform_double() < config.back_catalog_fraction) {
      p.introduced = sim::SimTime::from_seconds_f(
          -rng.uniform_double(0.0, config.back_catalog_window_days) * 86400.0);
    } else {
      p.introduced = sim::SimTime::from_seconds_f(
          rng.uniform_double(0.0, horizon_days) * 86400.0);
    }
  }
  return Catalog(std::move(programs));
}

// Samples how long a viewer watches a program of length `len`.
sim::SimTime sample_session_length(sim::SimTime len,
                                   const GeneratorConfig& config, Rng& rng) {
  const double mu = std::log(config.session_median_minutes * 60.0);
  double seconds = rng.lognormal(mu, config.session_sigma);
  seconds = std::max(seconds, config.min_session_seconds);
  seconds = std::min(seconds, len.seconds_f());
  return sim::SimTime::from_seconds_f(seconds);
}

// Lazy per-hour replay of the generation loop.  Arrivals are drawn hour by
// hour — a Poisson count for the hour, then each session placed uniformly
// inside it — exactly the draw order the materialized generator used, so
// the two produce identical sequences.  Each hour batch is stably sorted by
// start before it is handed out; since hour intervals are disjoint, the
// concatenation of per-hour stable sorts equals the global stable sort the
// Trace constructor would apply.
class GeneratorStream final : public SessionStream {
 public:
  GeneratorStream(const GeneratorConfig& config, const Catalog& catalog,
                  Rng rng)
      : config_(&config),
        programs_(&catalog.programs()),
        rng_(rng),
        hour_weight_sum_(std::accumulate(config.hourly_weights.begin(),
                                         config.hourly_weights.end(), 0.0)),
        sessions_per_day_(static_cast<double>(config.user_count) *
                          config.sessions_per_user_per_day),
        rebuild_interval_(sim::SimTime::from_seconds_f(
            config.popularity_rebuild_hours * 3600.0)) {
    weights_.reserve(programs_->size());
    available_.reserve(programs_->size());
  }

  bool next(SessionRecord& out) override {
    while (cursor_ >= batch_.size()) {
      if (!generate_next_hour()) return false;
    }
    out = batch_[cursor_++];
    return true;
  }

 private:
  // Popularity alias table, rebuilt every `popularity_rebuild_hours` so the
  // freshness decay and new releases take effect.
  void rebuild_sampler(sim::SimTime t) {
    weights_.clear();
    available_.clear();
    for (std::uint32_t i = 0; i < programs_->size(); ++i) {
      const double w = popularity_weight_at((*programs_)[i], t, *config_);
      if (w > 0.0) {
        weights_.push_back(w);
        available_.push_back(i);
      }
    }
    // Before the first release there is nothing to sample; such hours emit
    // no sessions (generate_next_hour).
    if (!weights_.empty()) program_sampler_ = AliasTable(weights_);
  }

  // Draws one hour's arrivals into batch_; false once past the horizon.
  bool generate_next_hour() {
    if (day_ >= config_->days) return false;
    const auto hour_begin =
        sim::SimTime::days(day_) + sim::SimTime::hours(hour_);
    if (hour_begin >= next_rebuild_) {
      rebuild_sampler(hour_begin);
      next_rebuild_ = hour_begin + rebuild_interval_;
    }
    const double lambda =
        sessions_per_day_ * config_->hourly_weights[hour_] / hour_weight_sum_;
    // No released program: no arrivals and no RNG draw, so runs that never
    // reach this state keep their bytes.
    const std::uint64_t count =
        available_.empty() ? 0 : rng_.poisson(lambda);
    batch_.clear();
    cursor_ = 0;
    batch_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      SessionRecord record;
      record.start = hour_begin +
                     sim::SimTime::millis(rng_.uniform_int(0, 3600 * 1000 - 1));
      record.user = UserId{
          static_cast<std::uint32_t>(rng_.uniform_u64(config_->user_count))};
      const std::uint32_t program = available_[program_sampler_.sample(rng_)];
      record.program = ProgramId{program};
      record.duration =
          sample_session_length((*programs_)[program].length, *config_, rng_);
      batch_.push_back(record);
    }
    std::stable_sort(batch_.begin(), batch_.end(),
                     [](const SessionRecord& a, const SessionRecord& b) {
                       return a.start < b.start;
                     });
    if (++hour_ == 24) {
      hour_ = 0;
      ++day_;
    }
    return true;
  }

  const GeneratorConfig* config_;
  const std::vector<ProgramInfo>* programs_;
  Rng rng_;
  const double hour_weight_sum_;
  const double sessions_per_day_;
  const sim::SimTime rebuild_interval_;

  sim::SimTime next_rebuild_;  // 0 -> rebuild before the first batch
  AliasTable program_sampler_;
  std::vector<std::uint32_t> available_;  // alias index -> program id
  std::vector<double> weights_;

  std::int32_t day_ = 0;
  int hour_ = 0;
  std::vector<SessionRecord> batch_;  // current hour, sorted by start
  std::size_t cursor_ = 0;
};

}  // namespace

GeneratorSource::GeneratorSource(GeneratorConfig config)
    : config_(config), session_rng_(config.seed) {
  config_.validate();
  catalog_ = build_catalog(config_, session_rng_);
}

std::unique_ptr<SessionStream> GeneratorSource::open() const {
  return std::make_unique<GeneratorStream>(config_, catalog_, session_rng_);
}

std::uint64_t GeneratorSource::session_count_hint() const {
  return static_cast<std::uint64_t>(
      static_cast<double>(config_.user_count) *
      config_.sessions_per_user_per_day * static_cast<double>(config_.days) *
      1.1);
}

Trace generate_power_info_like(const GeneratorConfig& config) {
  const GeneratorSource source(config);
  return materialize(source);
}

}  // namespace vodcache::trace
