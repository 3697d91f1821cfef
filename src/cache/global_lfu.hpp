// Global LFU (paper section VI-A, figure 13): an LFU whose popularity data
// comes from every neighborhood in the system, not just the local one.
//
// Score: (the shard's ReplayCursor count, local recency).  At lag 0 that
// count is the live global in-window count; at lag > 0 it is the count at
// the last batch boundary plus the neighborhood's own accesses since (see
// popularity_board.hpp).
//
// The owning shard moves the cursor from its own events before any cell
// runs, and every GlobalLFU cell of the shard reads the same cursor; the
// cursor knows nothing of its readers.  Each cell pulls what changed when
// it next needs an exact order: at lag 0, every count change since its
// last refresh is a board entry the cursor counted in or expired out
// since, so the cell walks those entries and re-ranks the cached programs
// they name; at lag > 0 it re-ranks its cached set once per batch.  No
// cross-neighborhood synchronization, so shards can run on different
// threads; counts are exact at every decision point (expiries are applied
// eagerly, see ARCHITECTURE.md "Cross-shard couplings").
#pragma once

#include <cstddef>
#include <cstdint>

#include "cache/popularity_board.hpp"
#include "cache/strategy.hpp"

namespace vodcache::cache {

class GlobalLfuStrategy final : public EvictionScorer {
 public:
  // `cursor` must outlive the strategy.
  GlobalLfuStrategy(AccessHistory& history, const ReplayCursor& cursor);

  [[nodiscard]] Score score(ProgramId program, sim::SimTime) override {
    return {cursor_->count(program), recency(program)};
  }

 private:
  // Brings the cached set's scores up to the cursor before a victim or
  // admission decision: the cached programs whose count changed at lag 0,
  // the whole cached set once per batch at lag > 0.
  void refresh(sim::SimTime t) override;
  // Lag 0: re-scores each cached program that board entries [from, to)
  // name and whose stored count differs from the cursor's.  Recency moves
  // only through on_access, which re-scores, so a stored score with the
  // current count is the current score.
  void rerank(std::size_t from, std::size_t to, sim::SimTime t);

  const ReplayCursor* cursor_;
  // Lag 0: the cursor's ingest and expire positions at the last refresh.
  std::size_t seen_ingested_;
  std::size_t seen_expired_;
  // Lag > 0: the cursor's epoch at the last refresh.
  std::uint64_t seen_epoch_ = 0;
};

}  // namespace vodcache::cache
