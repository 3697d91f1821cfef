// Oracle strategy (paper section VI-A): "caches the files that will be used
// the most frequently in the next three days.  This final algorithm is
// impossible to implement, and is presented as an example of ideal cache
// performance."
//
// Score = (future accesses in (now, now + lookahead], recency).  Scores of
// cached programs drift as the lookahead window slides, so the cached-set
// ordering is refreshed every `refresh_interval` of simulated time; the
// candidate side of every comparison is always computed fresh.
//
// This is an eviction-policy oracle: it still fills the cache
// opportunistically from broadcasts rather than prefetching (DESIGN.md,
// "Oracle = replacement-policy oracle").
#pragma once

#include "cache/future_index.hpp"
#include "cache/strategy.hpp"

namespace vodcache::cache {

class OracleStrategy final : public EvictionScorer {
 public:
  // `future` must outlive the strategy and be frozen before the first
  // score.
  OracleStrategy(AccessHistory& history, const FutureIndex& future,
                 sim::SimTime lookahead,
                 sim::SimTime refresh_interval = sim::SimTime::hours(1));

  void on_access(ProgramId program, sim::SimTime t) override {
    refresh(t);
    EvictionScorer::on_access(program, t);
  }
  [[nodiscard]] Score score(ProgramId program, sim::SimTime t) override {
    return {future_.count_in(program, t, lookahead_), recency(program)};
  }

 private:
  void refresh(sim::SimTime t) override;

  const FutureIndex& future_;
  sim::SimTime lookahead_;
  sim::SimTime refresh_interval_;
  sim::SimTime next_refresh_;
};

}  // namespace vodcache::cache
