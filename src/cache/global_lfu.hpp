// Global LFU (paper section VI-A, figure 13): an LFU whose popularity data
// comes from every neighborhood in the system, not just the local one.
//
// Score:
//   lag == 0 : (live global in-window count, local recency)
//   lag > 0  : (global count at last snapshot + local accesses since that
//               snapshot, local recency)
//
// The strategy reads the trace-prebuilt ReplayBoard through its own
// ReplayCursor, paced by the owning shard's ReplayClock.  No
// cross-neighborhood synchronization, so shards can run on different
// threads; counts are exact at every decision point (expiries are applied
// eagerly, see ARCHITECTURE.md "Cross-shard couplings").
#pragma once

#include <memory>
#include <vector>

#include "cache/popularity_board.hpp"
#include "cache/strategy.hpp"
#include "sim/replay_clock.hpp"
#include "util/flat_map.hpp"

namespace vodcache::cache {

class GlobalLfuStrategy final : public EvictionScorer {
 public:
  // The prebuilt board, paced by the shard's clock (both must outlive the
  // strategy; the clock is owned by the shard).
  GlobalLfuStrategy(std::shared_ptr<const ReplayBoard> board,
                    const sim::ReplayClock* clock);

  void record_access(ProgramId program, sim::SimTime t) override;
  [[nodiscard]] Score score(ProgramId program, sim::SimTime t) override;

 private:
  void refresh(sim::SimTime t) override;
  [[nodiscard]] sim::SimTime lag() const { return board_->lag(); }
  [[nodiscard]] std::int64_t global_count(ProgramId program, sim::SimTime t);
  void mark_dirty(ProgramId program);
  void rerank_dirty(sim::SimTime t);
  // True when a new global snapshot became visible since the last refresh
  // (lag > 0 only); updates the seen epoch as a side effect.
  [[nodiscard]] bool snapshot_turned(sim::SimTime t);

  std::shared_ptr<const ReplayBoard> board_;
  const sim::ReplayClock* clock_ = nullptr;
  std::unique_ptr<ReplayCursor> cursor_;

  // lag > 0 only: local accesses since the snapshot we last saw.  Reserved
  // for the catalog when lagged, so the record path never allocates (the
  // zero-alloc audit covers shadow GlobalLFUs riding the shard hot path).
  util::FlatMap64<std::int64_t> local_since_snapshot_;
  std::uint64_t seen_epoch_ = 0;
  // lag == 0 only: cached programs whose global count changed since the
  // last refresh.  Re-ranking is deferred to the next victim decision so a
  // burst of remote accesses costs one update, not one per access.  A flat
  // dedup set — per-program flag plus a compact list — whose buffers (and
  // the rerank scratch they swap with) recycle at their high-water marks.
  std::vector<std::uint8_t> dirty_flag_;
  std::vector<ProgramId> dirty_list_;
  std::vector<ProgramId> rerank_scratch_;
};

}  // namespace vodcache::cache
