#include "cache/greedy_dual.hpp"

#include <algorithm>

namespace vodcache::cache {

GreedyDualScorer::GreedyDualScorer(AccessHistory& history,
                                   const trace::Catalog& catalog)
    : EvictionScorer(history), catalog_(catalog) {
  history.keep_lifetime(catalog.size());
}

std::int64_t GreedyDualScorer::credit(ProgramId program) const {
  const auto seconds = std::max<std::int64_t>(
      1, catalog_.length(program).millis_count() / 1000);
  return history().lifetime_count(program) * kCreditScale / seconds;
}

void GreedyDualScorer::on_access(ProgramId program, sim::SimTime /*t*/) {
  // A touch re-prices the resident at the current inflation level —
  // exactly the GreedyDual "restore H on hit" rule.
  cached().update(program, {inflation_ + credit(program), recency(program)});
}

Score GreedyDualScorer::score(ProgramId program, sim::SimTime /*t*/) {
  // Residents keep the H frozen at their last touch (an older, smaller L);
  // candidates are priced at today's L.  This asymmetry is the aging.
  if (const auto stored = cached().score_of(program)) return *stored;
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
