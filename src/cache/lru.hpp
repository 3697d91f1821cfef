// Least Recently Used (paper section IV-B.2).
//
// "This strategy maintains a queue of each file sorted by when it was last
// accessed. ... If it is not in the cache already, it is added immediately.
// When the cache is full the program at the end of the queue is discarded."
//
// Score = (recency sequence, 0): a just-accessed candidate always outranks
// the least-recently-used cached program, so admission is unconditional,
// exactly as the paper specifies.
#pragma once

#include "cache/strategy.hpp"

namespace vodcache::cache {

class LruStrategy final : public EvictionScorer {
 public:
  using EvictionScorer::EvictionScorer;

  [[nodiscard]] Score score(ProgramId program, sim::SimTime) override {
    return {recency(program), 0};
  }
};

}  // namespace vodcache::cache
