#include "hfc/settop.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "util/assert.hpp"

namespace vodcache::hfc {

namespace {

constexpr sim::SimTime kNever =
    sim::SimTime::millis(std::numeric_limits<std::int64_t>::min());

}  // namespace

StreamSlots::StreamSlots(std::uint32_t peer_count, int limit)
    : peer_count_(peer_count), limit_(limit) {
  VODCACHE_EXPECTS(limit >= 1);
  ends_.assign(static_cast<std::size_t>(peer_count) *
                   static_cast<std::size_t>(limit),
               kNever);
}

sim::SimTime* StreamSlots::earliest(std::uint32_t peer) {
  sim::SimTime* lane =
      ends_.data() + static_cast<std::size_t>(peer) *
                         static_cast<std::size_t>(limit_);
  return std::min_element(lane, lane + limit_);
}

// Transmissions occupy [begin, end); one ending exactly at `begin` is free.
bool StreamSlots::try_acquire(std::uint32_t peer, sim::Interval interval) {
  VODCACHE_EXPECTS(interval.valid());
  VODCACHE_EXPECTS(peer < peer_count_);
  sim::SimTime* slot = earliest(peer);
  if (*slot > interval.begin) return false;
  *slot = interval.end;
  return true;
}

void StreamSlots::acquire_unchecked(std::uint32_t peer,
                                    sim::Interval interval) {
  VODCACHE_EXPECTS(interval.valid());
  VODCACHE_EXPECTS(peer < peer_count_);
  sim::SimTime* slot = earliest(peer);
  if (interval.end > *slot) *slot = interval.end;
}

}  // namespace vodcache::hfc
