#include "cache/popularity_board.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vodcache::cache {

ReplayBoard::ReplayBoard(std::size_t program_count, sim::SimTime window,
                         sim::SimTime lag)
    : window_(window), lag_(lag), program_count_(program_count) {
  VODCACHE_EXPECTS(program_count > 0);
  VODCACHE_EXPECTS(window > sim::SimTime{});
  VODCACHE_EXPECTS(lag >= sim::SimTime{});
}

void ReplayBoard::add(ProgramId program, sim::SimTime t) {
  VODCACHE_EXPECTS(!frozen_);
  VODCACHE_EXPECTS(program.value() < program_count_);
  VODCACHE_EXPECTS(accesses_.empty() || t >= accesses_.back().time);
  accesses_.push_back({t, program});
}

void ReplayBoard::freeze() { frozen_ = true; }

ReplayCursor::ReplayCursor(const ReplayBoard& board, ChangeCallback on_change)
    : board_(&board),
      on_change_(std::move(on_change)),
      live_(board.program_count(), 0) {
  if (board.lag() > sim::SimTime{}) {
    snapshot_.assign(board.program_count(), 0);
    next_batch_ = board.lag();
  }
}

void ReplayCursor::notify(ProgramId program) {
  if (on_change_) on_change_(program);
}

void ReplayCursor::ingest_to(std::size_t upto) {
  while (ingest_ < upto) {
    const ProgramId program = board_->access(ingest_).program;
    ++live_[program.value()];
    ++ingest_;
    notify(program);
  }
}

void ReplayCursor::expire_to(sim::SimTime cutoff) {
  // Only visible (ingested) accesses can expire.
  while (expire_ < ingest_ && board_->access(expire_).time < cutoff) {
    const ProgramId program = board_->access(expire_).program;
    VODCACHE_ASSERT(live_[program.value()] > 0);
    --live_[program.value()];
    ++expire_;
    notify(program);
  }
}

void ReplayCursor::publish_snapshots(sim::SimTime t, std::size_t bound) {
  if (board_->lag() == sim::SimTime{} || t < next_batch_) return;
  sim::SimTime boundary = next_batch_;
  while (boundary + board_->lag() <= t) boundary += board_->lag();
  // The snapshot counts accesses in [boundary - window, boundary): every
  // session start before the boundary was recorded before the first query
  // at or past it, and one exactly at the boundary is recorded just after
  // the publish.  A pure function of the trace.
  // `bound` cannot cut this scan short: boundary <= t, and every entry at
  // or past a chunk watermark has time >= the chunk end > t.
  std::size_t before_boundary = ingest_;
  while (before_boundary < bound &&
         board_->access(before_boundary).time < boundary) {
    ++before_boundary;
  }
  ingest_to(before_boundary);
  expire_to(boundary - board_->window());
  snapshot_ = live_;
  next_batch_ = boundary + board_->lag();
  ++epoch_;
}

void ReplayCursor::advance(sim::SimTime t, std::size_t upto,
                           std::size_t limit) {
  const std::size_t bound =
      limit == ReplayBoard::kNoLimit ? board_->size() : limit;
  publish_snapshots(t, bound);
  ingest_to(std::min(upto, bound));
  expire_to(t - board_->window());
}

void ReplayCursor::ingest_local(ProgramId program, sim::SimTime t,
                                std::size_t limit) {
  const std::size_t bound =
      limit == ReplayBoard::kNoLimit ? board_->size() : limit;
  VODCACHE_EXPECTS(ingest_ < bound);
  // The caller's own session start must be the next access on the shared
  // timeline — the strongest cheap check that shard replay and prebuild
  // agree on the trace order.
  VODCACHE_ASSERT(board_->access(ingest_).program == program);
  VODCACHE_ASSERT(board_->access(ingest_).time == t);
  ingest_to(ingest_ + 1);
}

std::int64_t ReplayCursor::visible_count(ProgramId program) const {
  VODCACHE_EXPECTS(program.value() < live_.size());
  if (board_->lag() == sim::SimTime{}) return live_[program.value()];
  return snapshot_[program.value()];
}

}  // namespace vodcache::cache
