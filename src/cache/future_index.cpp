#include "cache/future_index.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/assert.hpp"
#include "util/group_by_key.hpp"

namespace vodcache::cache {

void FutureIndex::add(ProgramId program, sim::SimTime t) {
  VODCACHE_EXPECTS(!frozen_);
  VODCACHE_EXPECTS(program.value() < program_count_);
  VODCACHE_EXPECTS(times_.size() < std::numeric_limits<std::uint32_t>::max());
  times_.push_back(t);
  programs_.push_back(program.value());
}

void FutureIndex::freeze() {
  VODCACHE_EXPECTS(!frozen_);
  std::vector<sim::SimTime> grouped(times_.size());
  util::group_by_key(programs_, program_count_, offsets_,
                     [&](std::uint32_t slot, std::size_t i) {
                       grouped[slot] = times_[i];
                     });
  // The prepass adds in time order, so its runs are sorted already.
  for (std::size_t p = 0; p < program_count_; ++p) {
    const auto first = grouped.begin() + offsets_[p];
    const auto last = grouped.begin() + offsets_[p + 1];
    if (!std::is_sorted(first, last)) std::sort(first, last);
  }
  times_ = std::move(grouped);
  programs_ = std::vector<std::uint32_t>();
  frozen_ = true;
}

std::int64_t FutureIndex::count_in(ProgramId program, sim::SimTime t,
                                   sim::SimTime horizon) const {
  VODCACHE_EXPECTS(frozen_);
  VODCACHE_EXPECTS(program.value() < program_count_);
  const auto first = times_.begin() + offsets_[program.value()];
  const auto last = times_.begin() + offsets_[program.value() + 1];
  const auto lo = std::upper_bound(first, last, t);
  const auto hi = std::upper_bound(first, last, t + horizon);
  return hi - lo;
}

}  // namespace vodcache::cache
