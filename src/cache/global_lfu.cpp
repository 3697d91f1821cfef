#include "cache/global_lfu.hpp"

#include <utility>

#include "util/assert.hpp"

namespace vodcache::cache {

GlobalLfuStrategy::GlobalLfuStrategy(std::shared_ptr<const ReplayBoard> board,
                                     const sim::ReplayClock* clock)
    : board_(std::move(board)), clock_(clock) {
  VODCACHE_EXPECTS(board_ != nullptr);
  VODCACHE_EXPECTS(clock_ != nullptr);
  ReplayCursor::ChangeCallback on_change;
  if (board_->lag() == sim::SimTime{}) {
    // Mark cached programs dirty when the system-wide count changes;
    // re-ranking happens at the next victim decision.
    dirty_flag_.resize(board_->program_count(), 0);
    on_change = [this](ProgramId program) { mark_dirty(program); };
  } else {
    local_since_snapshot_.reserve(board_->program_count());
  }
  cursor_ = std::make_unique<ReplayCursor>(*board_, std::move(on_change));
}

void GlobalLfuStrategy::mark_dirty(ProgramId program) {
  if (!is_cached(program)) return;
  if (dirty_flag_[program.value()] != 0) return;
  dirty_flag_[program.value()] = 1;
  dirty_list_.push_back(program);
}

void GlobalLfuStrategy::rerank_dirty(sim::SimTime t) {
  if (dirty_list_.empty()) return;
  // Re-score on a drained copy: scoring can advance the cursor, whose
  // notifications would otherwise append to the list mid-iteration.  swap()
  // recycles both buffers at their high-water marks.
  rerank_scratch_.clear();
  rerank_scratch_.swap(dirty_list_);
  for (const ProgramId program : rerank_scratch_) {
    dirty_flag_[program.value()] = 0;
  }
  for (const ProgramId program : rerank_scratch_) {
    if (is_cached(program)) cached().update(program, score(program, t));
  }
}

bool GlobalLfuStrategy::snapshot_turned(sim::SimTime t) {
  cursor_->advance(t, clock_->position, clock_->visible);
  const std::uint64_t epoch = cursor_->snapshot_epoch();
  if (epoch == seen_epoch_) return false;
  seen_epoch_ = epoch;
  return true;
}

void GlobalLfuStrategy::refresh(sim::SimTime t) {
  if (lag() == sim::SimTime{}) {
    // Advance the cursor first so that expiries between the shard's events
    // are applied (and dirty-marked) before re-ranking.
    cursor_->advance(t, clock_->position, clock_->visible);
    rerank_dirty(t);
    return;
  }
  if (!snapshot_turned(t)) return;
  // A new global batch arrived: local deltas are folded into it; re-rank
  // everything we hold.
  local_since_snapshot_.clear();
  cached().for_each_program(
      [&](ProgramId program) { cached().update(program, score(program, t)); });
}

void GlobalLfuStrategy::record_access(ProgramId program, sim::SimTime t) {
  refresh(t);
  touch(program);
  cursor_->ingest_local(program, t, clock_->visible);
  if (lag() > sim::SimTime{}) {
    std::int64_t* delta = local_since_snapshot_.find(program.value());
    if (delta == nullptr) delta = &local_since_snapshot_.insert(program.value(), 0);
    ++*delta;
  }
  cached().update(program, score(program, t));
}

std::int64_t GlobalLfuStrategy::global_count(ProgramId program,
                                             sim::SimTime t) {
  cursor_->advance(t, clock_->position, clock_->visible);
  return cursor_->visible_count(program);
}

Score GlobalLfuStrategy::score(ProgramId program, sim::SimTime t) {
  std::int64_t count = global_count(program, t);
  if (lag() > sim::SimTime{}) {
    const std::int64_t* delta = local_since_snapshot_.find(program.value());
    if (delta != nullptr) count += *delta;
  }
  return {count, recency(program)};
}

}  // namespace vodcache::cache
