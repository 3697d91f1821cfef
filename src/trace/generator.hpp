// Synthetic PowerInfo-like workload generator.
//
// The paper evaluates on the proprietary PowerInfo trace (Yu et al.,
// EuroSys'06): 41,698 users, 8,278 programs, 7 months of a deployed Chinese
// VoD service.  The trace is not public, so this generator synthesizes a
// workload calibrated to every statistic the paper publishes about it:
//
//  * Program popularity is Zipf-skewed (figure 2: the top program draws an
//    order of magnitude more sessions per 15 minutes than the 99%-quantile
//    program) and has release dynamics: a freshness boost at introduction
//    that decays ~80% within a week (figure 12).
//  * Session lengths are dominated by short samples (figure 3: half of all
//    sessions of a 100-minute program last under 8 minutes) with a
//    completion spike at the full program length (figure 6).  Modeled as
//    min(program_length, lognormal): the lognormal's tail mass beyond the
//    program length *is* the completion spike.
//  * Activity is diurnal, peaking 7-11 PM (figure 7), where aggregate
//    demand reaches ~17 Gb/s at 8.06 Mb/s per stream.
//
// Sessions/user/day defaults to 2.25, chosen so that peak-hour concurrency
// (sessions/s x mean session length, by Little's law) lands at the paper's
// 17 Gb/s no-cache server load; it is also consistent with the trace's
// ~20M transactions / 41,698 users / ~214 days ~ 2.24.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "trace/session_source.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace vodcache::trace {

struct GeneratorConfig {
  // Simulated horizon in days.  The paper's trace covers ~214 days; 28 days
  // is statistically sufficient for every figure and much faster.
  std::int32_t days = 28;

  std::uint32_t user_count = 41'698;
  std::uint32_t program_count = 8'278;
  double sessions_per_user_per_day = 2.25;

  // Popularity model: Zipf-Mandelbrot 1/(rank + offset)^exponent.  The
  // offset flattens the extreme head the way the PowerInfo trace's own
  // analysis (Yu et al., EuroSys'06) reports.
  double zipf_exponent = 1.15;
  double zipf_offset = 6.0;
  // Release dynamics: a program's weight is
  //   base*floor + boost * base^damping * mean_base^(1-damping) * e^(-age/tau)
  // The damping keeps release spikes bounded (~6% of traffic for the
  // hottest release, matching figure 2's max program) while preserving
  // variety: strong catalog items still debut hotter than filler.
  double freshness_boost = 9.0;
  double freshness_damping = 0.35;
  double freshness_floor = 0.15;     // long-run weight multiplier
  double freshness_tau_days = 4.0;   // e-folding time of the boost
  double back_catalog_fraction = 0.87;      // released before day 0
  double back_catalog_window_days = 120.0;  // how far back releases go
  // How often the popularity distribution (alias table) is rebuilt.
  double popularity_rebuild_hours = 6.0;

  // Session-length model: min(program length, lognormal).
  double session_median_minutes = 8.0;
  double session_sigma = 1.6;
  double min_session_seconds = 5.0;

  // Hour-of-day arrival weights (relative); defaults peak at 19-22.
  std::array<double, 24> hourly_weights = {
      2.5, 1.5, 1.0, 0.7, 0.5, 0.5, 0.8, 1.2, 1.8, 2.2, 2.6, 3.0,
      3.6, 3.8, 3.6, 3.4, 3.6, 4.2, 5.5, 7.5, 8.5, 8.0, 6.0, 4.0};

  std::uint64_t seed = 20070625;

  // Program length mix (minutes, probability).  Weighted mean ~51 minutes:
  // mostly TV-episode material with a movie tail, consistent with the
  // PowerInfo catalog's "approximately 1 hour" flagship items.
  struct LengthBucket {
    double minutes;
    double probability;
    bool operator==(const LengthBucket&) const = default;
  };
  std::array<LengthBucket, 7> length_mix = {{{20, 0.15},
                                             {30, 0.20},
                                             {45, 0.30},
                                             {60, 0.15},
                                             {90, 0.10},
                                             {100, 0.05},
                                             {120, 0.05}}};

  void validate() const;
  bool operator==(const GeneratorConfig&) const = default;
};

// The generator as a lazy SessionSource: the catalog is built eagerly (it
// is O(programs) and fixes the RNG stream's prefix), sessions are drawn on
// demand, one hour-batch at a time, so a multi-day million-user workload
// streams in O(users-per-hour) memory instead of O(total sessions).
//
// Determinism contract: for the same config (including seed), every open()
// replays the identical sequence, and that sequence is byte-for-byte the
// `sessions()` of `generate_power_info_like(config)` — the stream performs
// the exact same RNG draws in the exact same order; only the buffering
// differs (per-hour batches are stably sorted locally, which equals the
// materialized trace's global stable sort because hour intervals are
// disjoint in start time).
class GeneratorSource final : public SessionSource {
 public:
  explicit GeneratorSource(GeneratorConfig config);

  [[nodiscard]] const Catalog& catalog() const override { return catalog_; }
  [[nodiscard]] std::uint32_t user_count() const override {
    return config_.user_count;
  }
  [[nodiscard]] sim::SimTime horizon() const override {
    return sim::SimTime::days(config_.days);
  }
  [[nodiscard]] std::unique_ptr<SessionStream> open() const override;
  [[nodiscard]] std::uint64_t session_count_hint() const override;

  [[nodiscard]] const GeneratorConfig& config() const { return config_; }

 private:
  GeneratorConfig config_;
  Catalog catalog_;
  // RNG state after the catalog build; each stream continues from a copy.
  Rng session_rng_;
};

// Generates a materialized trace.  Deterministic in the config (including
// seed); equal to materialize(GeneratorSource(config)) — which is exactly
// how it is implemented.
[[nodiscard]] Trace generate_power_info_like(const GeneratorConfig& config);

// The time-varying popularity weight model, exposed so tests and analysis
// can evaluate ground truth: weight 0 before introduction, otherwise
// base_weight * floor + boost * fresh_weight * exp(-age / tau).
[[nodiscard]] double popularity_weight_at(const ProgramInfo& program,
                                          sim::SimTime t,
                                          const GeneratorConfig& config);

}  // namespace vodcache::trace
