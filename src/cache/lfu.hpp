// Least Frequently Used over an N-hour history (paper section IV-B.2).
//
// "The index server keeps a history of all events that occur within the
// last N hours ... Items that are accessed the most frequently are stored
// in the cache, with ties being resolved using an LRU strategy."
//
// Score = (accesses within the sliding window, recency sequence).  The
// window is the neighborhood's (cache/access_history.hpp): one per shard,
// advanced once per session, read by every LFU cell.  A cell keeps only
// its ranking: after each access it re-ranks the cached programs the
// window just expired, then the accessed one — CachedSet absorbs the
// downward moves by pushing fresh heap entries.
//
// history == 0 degenerates to pure LRU (the paper's figure 11 uses this as
// its leftmost point).
#pragma once

#include "cache/strategy.hpp"
#include "util/assert.hpp"

namespace vodcache::cache {

class LfuStrategy final : public EvictionScorer {
 public:
  LfuStrategy(AccessHistory& history, sim::SimTime window)
      : EvictionScorer(history) {
    VODCACHE_EXPECTS(window >= sim::SimTime{});
    history.keep_window(window);
  }

  void on_access(ProgramId program, sim::SimTime t) override {
    for (const ProgramId expired : history().expired()) {
      cached().update(expired, score(expired, t));
    }
    EvictionScorer::on_access(program, t);
  }
  [[nodiscard]] Score score(ProgramId program, sim::SimTime) override {
    return {history().window_count(program), recency(program)};
  }
};

}  // namespace vodcache::cache
