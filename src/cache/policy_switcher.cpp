#include "cache/policy_switcher.hpp"

#include "util/assert.hpp"

namespace vodcache::cache {

PolicySwitcher::PolicySwitcher(sim::SimTime window, int windows_k,
                               std::size_t pair_count)
    : window_(window),
      windows_k_(windows_k),
      window_end_(window),
      cell_hits_marks_(pair_count, 0) {
  VODCACHE_EXPECTS(window > sim::SimTime{});
  VODCACHE_EXPECTS(windows_k >= 1);
  VODCACHE_EXPECTS(pair_count > 0 && pair_count <= ShadowBank::kMaxPairs);
}

std::optional<PolicySwitcher::Decision> PolicySwitcher::evaluate(
    sim::SimTime t, const CellCounters& primary, const ShadowBank& bank) {
  if (t < window_end_) return std::nullopt;

  // Jump the boundary past t arithmetically; every window between the one
  // being closed and t is empty (counters only move at events, and every
  // event lands here first), and empty windows carry no verdict.
  const std::int64_t w = window_.millis_count();
  const std::int64_t gap = (t - window_end_).millis_count();
  window_end_ = window_end_ + sim::SimTime::millis((gap / w + 1) * w);

  // An empty window (no segment served since the last close) neither ends
  // nor extends the streak — a quiet night is no evidence either way.
  if (primary.segments == primary_segments_mark_) return std::nullopt;
  primary_segments_mark_ = primary.segments;

  const std::uint64_t primary_delta = primary.hits - primary_hits_mark_;
  primary_hits_mark_ = primary.hits;

  // Best cell of the window: maximum hit delta, ties to the lowest index
  // (registry order — deterministic, and stable across the swap because a
  // promoted cell keeps its index).
  std::size_t best = 0;
  std::uint64_t best_delta = 0;
  for (std::size_t p = 0; p < cell_hits_marks_.size(); ++p) {
    const std::uint64_t hits = bank.counters(p).hits;
    const std::uint64_t delta = hits - cell_hits_marks_[p];
    cell_hits_marks_[p] = hits;
    if (p == 0 || delta > best_delta) {
      best = p;
      best_delta = delta;
    }
  }

  // Only a *strict* lead over the primary counts as a win: the primary's
  // own pair rides the bank too, so an equal-best window must never
  // trigger a self-switch.
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
