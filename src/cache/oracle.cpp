#include "cache/oracle.hpp"

#include "util/assert.hpp"

namespace vodcache::cache {

OracleStrategy::OracleStrategy(AccessHistory& history,
                               const FutureIndex& future,
                               sim::SimTime lookahead,
                               sim::SimTime refresh_interval)
    : EvictionScorer(history),
      future_(future),
      lookahead_(lookahead),
      refresh_interval_(refresh_interval) {
  // `future` need not be frozen yet: under the job-graph executor the
  // prepass job fills and freezes it after the strategy is built, and
  // every feed waits for that job.  count_in() still asserts frozen.
  VODCACHE_EXPECTS(lookahead > sim::SimTime{});
  VODCACHE_EXPECTS(refresh_interval > sim::SimTime{});
}

void OracleStrategy::refresh(sim::SimTime t) {
  if (t < next_refresh_) return;
  next_refresh_ = t + refresh_interval_;
  cached().for_each_program(
      [&](ProgramId program) { cached().update(program, score(program, t)); });
}

}  // namespace vodcache::cache
