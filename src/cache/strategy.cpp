#include "cache/strategy.hpp"

namespace vodcache::cache {

std::optional<ProgramId> EvictionScorer::victim(sim::SimTime t) {
  refresh(t);
  return cached_.min();
}

void EvictionScorer::on_admit(ProgramId program, sim::SimTime t) {
  refresh(t);
  cached_.insert(program, score(program, t));
}

}  // namespace vodcache::cache
