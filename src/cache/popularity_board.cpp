#include "cache/popularity_board.hpp"

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

ReplayCursor::ReplayCursor(const ReplayBoard& board)
    : board_(&board), live_(board.program_count(), 0) {}

std::size_t ReplayCursor::bound() const {
  return limit_ == ReplayBoard::kNoLimit ? board_->size() : limit_;
}

void ReplayCursor::ingest_to(std::size_t upto) {
  while (ingest_ < upto) {
    const ProgramId program = board_->access(ingest_).program;
    ++live_[program.value()];
    ++ingest_;
  }
}

void ReplayCursor::ingest_before(sim::SimTime t) {
  const std::size_t limit = bound();
  std::size_t upto = ingest_;
  while (upto < limit && board_->access(upto).time < t) ++upto;
  ingest_to(upto);
}

void ReplayCursor::expire_to(sim::SimTime cutoff) {
  // Only visible (ingested) accesses can expire.
  while (expire_ < ingest_ && board_->access(expire_).time < cutoff) {
    const ProgramId program = board_->access(expire_).program;
    VODCACHE_ASSERT(live_[program.value()] > 0);
    --live_[program.value()];
    ++expire_;
  }
}

void ReplayCursor::move_batch(sim::SimTime t) {
  const std::int64_t lag_ms = board_->lag().millis_count();
  const auto batch = sim::SimTime::millis(t.millis_count() / lag_ms * lag_ms);
  if (batch == batch_) return;
  // The own accesses come back in through the board once they fall before
  // the new boundary; until then the board entries past ingest_ hold them.
  for (const ProgramId program : own_since_batch_) --live_[program.value()];
  own_since_batch_.clear();
  ingest_before(batch);
  expire_to(batch - board_->window());
  batch_ = batch;
  ++epoch_;
}

void ReplayCursor::on_boundary(sim::SimTime t) {
  if (lagged()) {
    move_batch(t);
    return;
  }
  ingest_before(t);
  expire_to(t - board_->window());
}

void ReplayCursor::on_session_start(std::size_t index, ProgramId program,
                                    sim::SimTime t) {
  VODCACHE_EXPECTS(index < bound());
  // The session's own start must be its entry on the shared timeline —
  // the strongest cheap check that shard replay and prebuild agree on the
  // trace order.
  VODCACHE_ASSERT(board_->access(index).program == program);
  VODCACHE_ASSERT(board_->access(index).time == t);
  if (lagged()) {
    move_batch(t);
    ++live_[program.value()];
    own_since_batch_.push_back(program);
    return;
  }
  VODCACHE_ASSERT(ingest_ <= index);
  ingest_to(index + 1);
  expire_to(t - board_->window());
}

}  // namespace vodcache::cache
