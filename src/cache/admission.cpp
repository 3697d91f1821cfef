#include "cache/admission.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vodcache::cache {

CoaxHeadroomPolicy::CoaxHeadroomPolicy(const hfc::CoaxSpec& spec,
                                       double fraction)
    : spec_(spec), fraction_(fraction) {
  VODCACHE_EXPECTS(fraction > 0.0 && fraction <= 1.0);
}

bool CoaxHeadroomPolicy::admit(const AdmissionRequest& request) {
  return spec_.vod_headroom(request.coax_rate, fraction_);
}

AdaptiveHeadroomPolicy::AdaptiveHeadroomPolicy(const hfc::CoaxSpec& spec,
                                               double initial_fraction,
                                               sim::SimTime window,
                                               double step)
    : spec_(spec),
      fraction_(initial_fraction),
      window_(window),
      step_(step),
      window_end_(window) {
  VODCACHE_EXPECTS(initial_fraction > 0.0 && initial_fraction <= 1.0);
  VODCACHE_EXPECTS(window > sim::SimTime{});
  VODCACHE_EXPECTS(step > 0.0 && step < 1.0);
}

void AdaptiveHeadroomPolicy::rotate(sim::SimTime t) {
  if (t < window_end_) return;
  // Feedback only accumulates between rotations, and every event rotates
  // first — so at most the *oldest* pending window carries data; all later
  // boundaries up to t close empty windows, which carry no signal (no
  // fraction step, no reference-rate update).  Evaluate the one window,
  // then jump the boundary past t arithmetically: a sparse stream's
  // multi-week gap costs O(1), not O(gap/window) empty iterations.
  if (window_segments_ > 0) {
    const double rate = static_cast<double>(window_hits_) /
                        static_cast<double>(window_segments_);
    if (previous_rate_ >= 0.0 && rate < previous_rate_) {
      direction_ = -direction_;
    }
    previous_rate_ = rate;
    fraction_ = std::clamp(fraction_ + direction_ * step_, kMinFraction, 1.0);
    window_segments_ = 0;
    window_hits_ = 0;
  }
  const std::int64_t w = window_.millis_count();
  const std::int64_t gap = (t - window_end_).millis_count();
  window_end_ = window_end_ + sim::SimTime::millis((gap / w + 1) * w);
}

bool AdaptiveHeadroomPolicy::admit(const AdmissionRequest& request) {
  rotate(request.time);
  return spec_.vod_headroom(request.coax_rate, fraction_);
}

void AdaptiveHeadroomPolicy::on_serve(bool hit, sim::SimTime t) {
  rotate(t);
  ++window_segments_;
  if (hit) ++window_hits_;
}

}  // namespace vodcache::cache
