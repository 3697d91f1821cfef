#include "cache/lfu.hpp"

#include "util/assert.hpp"

namespace vodcache::cache {

LfuStrategy::LfuStrategy(sim::SimTime history) : history_(history) {
  VODCACHE_EXPECTS(history >= sim::SimTime{});
}

void LfuStrategy::expire(sim::SimTime now) {
  const sim::SimTime cutoff = now - history_;
  while (!window_.empty() && window_.front().time < cutoff) {
    const ProgramId program = window_.front().program;
    window_.pop_front();
    std::int64_t* count = counts_.find(program.value());
    VODCACHE_ASSERT(count != nullptr && *count > 0);
    if (--*count == 0) counts_.erase(program.value());
    // Re-rank if this program is cached.
    cached().update(program, score(program, now));
  }
}

void LfuStrategy::record_access(ProgramId program, sim::SimTime t) {
  expire(t);
  touch(program);
  if (history_ > sim::SimTime{}) {
    window_.push_back({t, program});
    if (std::int64_t* count = counts_.find(program.value())) {
      ++*count;
    } else {
      counts_.insert(program.value(), 1);
    }
  }
  cached().update(program, score(program, t));
}

Score LfuStrategy::score(ProgramId program, sim::SimTime /*t*/) {
  const std::int64_t* count = counts_.find(program.value());
  return {count == nullptr ? 0 : *count, recency(program)};
}

}  // namespace vodcache::cache
