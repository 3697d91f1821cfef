// Admission half of the cache policy engine.
//
// The monolithic ReplacementStrategy hardwired "every miss may enter the
// cache"; that is now one policy among several.  An AdmissionPolicy decides
// whether a missed program may enter the cache at all — before any victim
// is nominated — so a refusal leaves the cached set untouched.  A policy
// keeps only its decision: the popularity signal it reads lives in the
// neighborhood's AccessHistory, shared with the scorer, so neither side
// keeps state the other depends on — any scorer runs against any
// admission policy.
//
// Decision granularity follows core::CacheAdmission exactly as before: the
// index server asks once per session at the point the program would be
// committed (whole-program) or first stored (segment), never per segment.
#pragma once

#include <cstdint>

#include "cache/access_history.hpp"
#include "hfc/topology.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace vodcache::cache {

// The admission moment, as the index server sees it.  Everything a policy
// may consult beyond the neighborhood's access history.
struct AdmissionRequest {
  ProgramId program;
  sim::SimTime time;
  // Average rate the neighborhood coax sustains during the metering bucket
  // containing `time` (transmissions already scheduled into that bucket
  // included — the index server dictates placement, so it knows the load it
  // has committed the wire to).
  DataRate coax_rate;
};

class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  AdmissionPolicy() = default;
  AdmissionPolicy(const AdmissionPolicy&) = delete;
  AdmissionPolicy& operator=(const AdmissionPolicy&) = delete;

  // May `request.program`, missed at `request.time`, enter the cache?
  // Called only when the program is not already (being) cached, after the
  // history has recorded the session.
  [[nodiscard]] virtual bool admit(const AdmissionRequest& request) = 0;

  // Outcome feedback: one segment transmission finished at `t`, served by a
  // peer (`hit`) or the upstream path.  Called once per segment, after the
  // hit/miss classification — the closed loop self-tuning policies climb
  // against.  Default: stateless policies ignore it.
  virtual void on_serve(bool /*hit*/, sim::SimTime /*t*/) {}
};

// Probationary admission: a program enters the cache only on its second
// access within `probation_window` — one-hit wonders (the long tail of the
// Zipf catalog) never displace proven programs, at the cost of caching
// every popular program one session later.
class SecondHitPolicy final : public AdmissionPolicy {
 public:
  // `history` must outlive the policy.
  SecondHitPolicy(AccessHistory& history, sim::SimTime probation_window)
      : history_(history), window_(probation_window) {
    VODCACHE_EXPECTS(probation_window >= sim::SimTime{});
    history.keep_probation(probation_window);
  }

  // The history already holds the current session, so its previous access
  // is the one before.
  [[nodiscard]] bool admit(const AdmissionRequest& request) override {
    const auto previous = history_.previous_access(request.program);
    return previous && request.time - *previous <= window_;
  }

 private:
  const AccessHistory& history_;
  sim::SimTime window_;
};

// Coax-headroom gate: refuses admission while the neighborhood coax is
// near its cap.  Every admission converts future requests for the program
// into peer broadcasts, which ride the same shared coax as the miss
// traffic (section VI-B) — when the wire is already close to the plant's
// available band, the gate stops the cache from committing it to more
// opportunistic fill work.  A scenario the monolithic strategy could not
// express: admission consulting the live rate meter.
class CoaxHeadroomPolicy final : public AdmissionPolicy {
 public:
  // Admission is refused while coax_rate >= fraction x available band of
  // `spec` (the conservative low-quality-plant band).
  CoaxHeadroomPolicy(const hfc::CoaxSpec& spec, double fraction);

  [[nodiscard]] bool admit(const AdmissionRequest& request) override;

 private:
  hfc::CoaxSpec spec_;
  double fraction_;
};

// TinyLFU-style sketch gate: a program is admitted once its count-min
// sketch frequency estimate reaches `min_estimate`.  Like second-hit it
// filters one-hit wonders, but its memory is O(width x depth) regardless
// of catalog size, and the periodic halving ages popularity geometrically
// instead of forgetting everything outside a fixed probation window — a
// program re-accessed after a quiet day keeps the credit it has earned.
class SketchLFUPolicy final : public AdmissionPolicy {
 public:
  // Reads `history`'s sketch (`width` x `depth`, halving every
  // `halve_period` accesses); `history` must outlive the policy.
  SketchLFUPolicy(AccessHistory& history, std::uint32_t width,
                  std::uint32_t depth, std::uint64_t halve_period,
                  std::uint32_t min_estimate)
      : history_(history), min_estimate_(min_estimate) {
    VODCACHE_EXPECTS(min_estimate >= 1);
    history.keep_sketch(width, depth, halve_period);
  }

  // The history already counts the current session, so a program's very
  // first access reads estimate >= 1: min_estimate == 1 degenerates to
  // always-admit, 2 behaves like a probation with geometric forgetting.
  [[nodiscard]] bool admit(const AdmissionRequest& request) override {
    return history_.sketch().estimate(request.program.value()) >=
           min_estimate_;
  }

 private:
  const AccessHistory& history_;
  std::uint32_t min_estimate_;
};

// Self-tuning coax-headroom gate: same admission test as
// CoaxHeadroomPolicy, but the fraction is not a fixed knob — it
// hill-climbs.  Each rotation window accumulates the neighborhood's
// hit/serve outcome feedback (on_serve); at the window boundary the climber
// compares the window's hit rate against the previous window's, keeps its
// direction while the rate improves, reverses when it degrades, and steps
// the fraction.  Deterministic: driven purely by event-ordered feedback,
// no clocks or randomness.
class AdaptiveHeadroomPolicy final : public AdmissionPolicy {
 public:
  // Starts at `initial_fraction`, stepping by `step` per rotated `window`;
  // the fraction is clamped to [kMinFraction, 1].
  AdaptiveHeadroomPolicy(const hfc::CoaxSpec& spec, double initial_fraction,
                         sim::SimTime window, double step);

  static constexpr double kMinFraction = 0.05;

  [[nodiscard]] bool admit(const AdmissionRequest& request) override;
  void on_serve(bool hit, sim::SimTime t) override;

  [[nodiscard]] double fraction() const { return fraction_; }

 private:
  // Advances the window to the boundary covering `t` in O(1): one
  // evaluation for the window that actually accumulated feedback, then an
  // arithmetic jump over the empty gap.  A sparse stream whose events are
  // weeks apart must not pay one loop iteration per elapsed window
  // (regression-pinned in tests/admission_test.cpp).
  void rotate(sim::SimTime t);

  hfc::CoaxSpec spec_;
  double fraction_;
  sim::SimTime window_;
  double step_;
  sim::SimTime window_end_;
  std::uint64_t window_segments_ = 0;
  std::uint64_t window_hits_ = 0;
  double previous_rate_ = -1.0;  // < 0: no completed window yet
  double direction_ = 1.0;
};

}  // namespace vodcache::cache
