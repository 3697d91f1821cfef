#include "cache/policy_switcher.hpp"

#include "util/assert.hpp"

namespace vodcache::cache {

PolicySwitcher::PolicySwitcher(sim::SimTime window, int windows_k,
                               std::size_t cell_count)
    : window_(window),
      windows_k_(windows_k),
      window_end_(window),
      cell_hits_marks_(cell_count, 0) {
  VODCACHE_EXPECTS(window > sim::SimTime{});
  VODCACHE_EXPECTS(windows_k >= 1);
  VODCACHE_EXPECTS(cell_count > 0 && cell_count <= kMaxCells);
}

std::optional<PolicySwitcher::Decision> PolicySwitcher::evaluate(
    sim::SimTime t, std::uint64_t segments, std::span<const CacheCell> cells,
    std::size_t primary) {
  if (t < window_end_) return std::nullopt;

  // Jump the boundary past t arithmetically; every window between the one
  // being closed and t is empty (counters only move at events, and every
  // event lands here first), and empty windows carry no verdict.
  const std::int64_t w = window_.millis_count();
  const std::int64_t gap = (t - window_end_).millis_count();
  window_end_ = window_end_ + sim::SimTime::millis((gap / w + 1) * w);

  // An empty window (no segment served since the last close) neither ends
  // nor extends the streak — a quiet night is no evidence either way.
  if (segments == segments_mark_) return std::nullopt;
  segments_mark_ = segments;

  // Best cell of the window: maximum hit delta, ties to the lowest index
  // (registry order — deterministic, because cells never move).
  std::size_t best = 0;
  std::uint64_t best_delta = 0;
  std::uint64_t primary_delta = 0;
  for (std::size_t c = 0; c < cell_hits_marks_.size(); ++c) {
    const std::uint64_t hits = cells[c].counters().hits;
    const std::uint64_t delta = hits - cell_hits_marks_[c];
    cell_hits_marks_[c] = hits;
    if (c == primary) primary_delta = delta;
    if (c == 0 || delta > best_delta) {
      best = c;
      best_delta = delta;
    }
  }

  // Only a *strict* lead over the primary counts as a win: the primary is
  // one of the cells too, so an equal-best window must never trigger a
  // self-switch.
  if (best_delta <= primary_delta) {
    streak_ = 0;
    streak_cell_ = kNoCell;
    return std::nullopt;
  }
  if (best == streak_cell_) {
    ++streak_;
  } else {
    streak_cell_ = best;
    streak_ = 1;
  }
  if (streak_ < windows_k_) return std::nullopt;

  streak_ = 0;
  streak_cell_ = kNoCell;
  return Decision{best, primary_delta, best_delta};
}

}  // namespace vodcache::cache
