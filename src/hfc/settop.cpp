#include "hfc/settop.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vodcache::hfc {

StreamSlots::StreamSlots(int limit) : limit_(limit) {
  VODCACHE_EXPECTS(limit >= 0);
  // Serving is capped at `limit`, but viewer playback goes through
  // acquire_unchecked and can stack one user's overlapping sessions past
  // it.  Reserve generous slack so a box's first concurrency peak — which
  // can land arbitrarily late in a run — does not reallocate mid-replay.
  active_ends_.reserve(static_cast<std::size_t>(limit) + 8);
}

void StreamSlots::prune(sim::SimTime now) {
  // Transmissions occupy [begin, end); one ending exactly at `now` is free.
  std::erase_if(active_ends_, [now](sim::SimTime end) { return end <= now; });
}

int StreamSlots::active(sim::SimTime now) {
  prune(now);
  return static_cast<int>(active_ends_.size());
}

bool StreamSlots::try_acquire(sim::Interval interval) {
  VODCACHE_EXPECTS(interval.valid());
  if (active(interval.begin) >= limit_) return false;
  active_ends_.push_back(interval.end);
  return true;
}

void StreamSlots::acquire_unchecked(sim::Interval interval) {
  VODCACHE_EXPECTS(interval.valid());
  prune(interval.begin);
  active_ends_.push_back(interval.end);
}

}  // namespace vodcache::hfc
