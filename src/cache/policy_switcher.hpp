// PolicySwitcher: closes the shadow-matrix loop.  The index server's cells
// already bookkeep every registered (scorer x admission) pair against the
// live session stream with exact standalone-counter equivalence; this class
// watches those counters per window and decides when a neighborhood should
// *switch* its primary to a cell that has been beating it.  The switch
// itself — the index server serving from the winning cell from then on —
// is the shard's job; this class only decides.
//
// Determinism: a switch decision is a pure function of the event stream.
// Windows rotate at event times only (the first event at or past the
// boundary closes the window before it is processed), the comparison reads
// nothing but cumulative counters, and ties break on the lowest cell
// index, which is registry order because cells never move.  No wall
// clock, no thread identity — so the per-shard switch log, like every
// other report section, is bit-identical across thread counts and chunk
// sizes.
//
// The empty-window jump is arithmetic: counters only move at events, so at
// most the oldest pending window carries data; every later boundary up to
// the triggering event closes an empty window, which neither ends nor
// extends a winning streak.  A sparse neighborhood's multi-day gap costs
// O(1), not O(gap/window).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cache/cache_cell.hpp"
#include "sim/time.hpp"

namespace vodcache::cache {

class PolicySwitcher {
 public:
  // The verdict of a closed window streak: promote `cell`.
  struct Decision {
    std::size_t cell = 0;
    std::uint64_t window_primary_hits = 0;
    std::uint64_t window_winner_hits = 0;
  };

  // Windows of `window` must be won `windows_k` consecutive times.
  PolicySwitcher(sim::SimTime window, int windows_k, std::size_t cell_count);

  // Called at every shard event *before* the event is processed, with the
  // neighborhood's `segments` served so far.  Closes the pending window
  // when `t` reached its boundary, compares every cell's hit delta with
  // cell `primary`'s, and returns the cell to
  // promote when the same cell's strict lead has lasted k data-carrying
  // windows.  The caller performs the switch; the streak restarts from
  // zero afterwards (the next switch needs k fresh wins against the new
  // primary).
  [[nodiscard]] std::optional<Decision> evaluate(
      sim::SimTime t, std::uint64_t segments, std::span<const CacheCell> cells,
      std::size_t primary);

 private:
  static constexpr std::size_t kNoCell = ~std::size_t{0};

  sim::SimTime window_;
  int windows_k_;
  sim::SimTime window_end_;
  // Cumulative-counter marks taken at the last window close; the next
  // window's score is the delta against them.
  std::uint64_t segments_mark_ = 0;
  std::vector<std::uint64_t> cell_hits_marks_;
  std::size_t streak_cell_ = kNoCell;
  int streak_ = 0;
};

}  // namespace vodcache::cache
