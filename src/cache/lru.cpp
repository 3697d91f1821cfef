#include "cache/lru.hpp"

namespace vodcache::cache {

void LruStrategy::record_access(ProgramId program, sim::SimTime t) {
  touch(program);
  cached().update(program, score(program, t));
}

Score LruStrategy::score(ProgramId program, sim::SimTime /*t*/) {
  return {recency(program), 0};
}

}  // namespace vodcache::cache
