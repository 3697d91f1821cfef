// Global LFU (paper section VI-A, figure 13): an LFU whose popularity data
// comes from every neighborhood in the system, not just the local one.
//
// Score: (the shard's ReplayCursor count, local recency).  At lag 0 that
// count is the live global in-window count; at lag > 0 it is the count at
// the last batch boundary plus the neighborhood's own accesses since (see
// popularity_board.hpp).
//
// The owning shard moves the cursor from its own events before any cell
// runs, and every GlobalLFU cell of the shard reads the same cursor.  No
// cross-neighborhood synchronization, so shards can run on different
// threads; counts are exact at every decision point (expiries are applied
// eagerly, see ARCHITECTURE.md "Cross-shard couplings").
#pragma once

#include <cstdint>
#include <vector>

#include "cache/popularity_board.hpp"
#include "cache/strategy.hpp"

namespace vodcache::cache {

class GlobalLfuStrategy final : public EvictionScorer {
 public:
  // `cursor` must outlive the strategy; at lag 0 the strategy attaches
  // itself to hear of count changes.
  GlobalLfuStrategy(AccessHistory& history, ReplayCursor& cursor);

  [[nodiscard]] Score score(ProgramId program, sim::SimTime) override {
    return {cursor_->count(program), recency(program)};
  }

  // Lag 0: the cursor's live count of `program` changed.  A cached program
  // is queued for re-ranking at the next refresh.
  void on_count_change(ProgramId program) {
    if (!is_cached(program) || dirty_flag_[program.value()] != 0) return;
    dirty_flag_[program.value()] = 1;
    dirty_list_.push_back(program);
  }

 private:
  // Brings the cached set's scores up to the cursor before a victim or
  // admission decision: the dirty programs at lag 0, the whole cached set
  // once per batch at lag > 0.
  void refresh(sim::SimTime t) override;

  const ReplayCursor* cursor_;
  std::uint64_t seen_epoch_ = 0;
  // Lag 0 only: cached programs whose count changed since the last
  // refresh, as a flat dedup set — per-program flag plus a compact list.
  // Both are reserved to the catalog, so a burst of remote accesses never
  // allocates on the shard's hot path.
  std::vector<std::uint8_t> dirty_flag_;
  std::vector<ProgramId> dirty_list_;
};

}  // namespace vodcache::cache
