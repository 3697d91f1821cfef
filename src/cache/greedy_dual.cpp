#include "cache/greedy_dual.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vodcache::cache {

GreedyDualScorer::GreedyDualScorer(const trace::Catalog& catalog)
    : catalog_(catalog), counts_(catalog.size(), 0) {}

std::int64_t GreedyDualScorer::credit(ProgramId program) const {
  VODCACHE_EXPECTS(program.value() < counts_.size());
  const auto seconds = std::max<std::int64_t>(
      1, catalog_.length(program).millis_count() / 1000);
  return counts_[program.value()] * kCreditScale / seconds;
}

void GreedyDualScorer::record_access(ProgramId program, sim::SimTime t) {
  VODCACHE_EXPECTS(program.value() < counts_.size());
  ++counts_[program.value()];
  const std::int64_t seq = touch(program);
  // A touch re-prices the resident at the current inflation level —
  // exactly the GreedyDual "restore H on hit" rule.
  cached().update(program, {inflation_ + credit(program), seq});
  (void)t;
}

Score GreedyDualScorer::score(ProgramId program, sim::SimTime /*t*/) {
  // Residents keep the H frozen at their last touch (an older, smaller L);
  // candidates are priced at today's L.  This asymmetry is the aging.
  if (const auto stored = cached().score_of(program)) return *stored;
  VODCACHE_EXPECTS(program.value() < counts_.size());
  return {inflation_ + credit(program), recency(program)};
}

void GreedyDualScorer::on_evict(ProgramId program) {
  // Classic GreedyDual: L rises to the evicted victim's H — but only on
  // victim evictions (the capacity path always evicts the minimum).  A
  // disk wipe of a non-minimal resident must not lift L past survivors.
  if (cached().min() == std::optional<ProgramId>{program}) {
    if (const auto stored = cached().score_of(program)) {
      inflation_ = std::max(inflation_, stored->first);
    }
  }
  EvictionScorer::on_evict(program);
}

}  // namespace vodcache::cache
