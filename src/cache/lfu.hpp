// Least Frequently Used over an N-hour history (paper section IV-B.2).
//
// "The index server keeps a history of all events that occur within the
// last N hours ... Items that are accessed the most frequently are stored
// in the cache, with ties being resolved using an LRU strategy."
//
// Score = (accesses within the sliding window, recency sequence).  The
// window advances on every access; expiring an event decrements its
// program's count and, if that program is cached, re-ranks it — CachedSet
// absorbs the downward move by pushing a fresh heap entry.
//
// State lives in flat containers (util/flat_map.hpp): the event window in
// a ring buffer that grows to its high-water mark and then cycles
// allocation-free, the per-program counts in an open-addressed table sized
// by the touched content set (recency is the base's table, same sizing).
//
// history == 0 degenerates to pure LRU (the paper's figure 11 uses this as
// its leftmost point).
#pragma once

#include "cache/strategy.hpp"
#include "util/flat_map.hpp"

namespace vodcache::cache {

class LfuStrategy final : public EvictionScorer {
 public:
  explicit LfuStrategy(sim::SimTime history);

  void record_access(ProgramId program, sim::SimTime t) override;
  [[nodiscard]] Score score(ProgramId program, sim::SimTime t) override;

 private:
  void expire(sim::SimTime now);

  struct HistoryEvent {
    sim::SimTime time;
    ProgramId program;
  };

  sim::SimTime history_;
  util::RingBuffer<HistoryEvent> window_;
  util::FlatMap64<std::int64_t> counts_;
};

}  // namespace vodcache::cache
