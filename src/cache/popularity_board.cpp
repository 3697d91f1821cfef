#include "cache/popularity_board.hpp"

#include <limits>

#include "util/assert.hpp"

namespace vodcache::cache {

ReplayBoard::ReplayBoard(std::size_t program_count, sim::SimTime window,
                         sim::SimTime lag)
    : window_(window), lag_(lag), program_count_(program_count) {
  VODCACHE_EXPECTS(program_count > 0);
  VODCACHE_EXPECTS(program_count < std::numeric_limits<std::uint32_t>::max());
  VODCACHE_EXPECTS(window > sim::SimTime{});
  VODCACHE_EXPECTS(lag >= sim::SimTime{});
}

void ReplayBoard::reserve(std::size_t count) {
  times_.reserve(count);
  programs_.reserve(count);
}

void ReplayBoard::add(ProgramId program, sim::SimTime t) {
  VODCACHE_EXPECTS(!frozen_);
  VODCACHE_EXPECTS(program.value() < program_count_);
  VODCACHE_EXPECTS(times_.empty() || t >= times_.back());
  // Positions are stored as 32-bit list slots.
  VODCACHE_EXPECTS(times_.size() < std::numeric_limits<std::uint32_t>::max());
  times_.push_back(t);
  programs_.push_back(program.value());
}

void ReplayBoard::freeze() {
  VODCACHE_EXPECTS(!frozen_);
  // Counting placement: trace order is each program's ascending order.
  offsets_.assign(program_count_ + 1, 0);
  for (const std::uint32_t program : programs_) ++offsets_[program + 1];
  for (std::size_t p = 0; p < program_count_; ++p) {
    offsets_[p + 1] += offsets_[p];
  }
  positions_.resize(programs_.size());
  std::vector<std::uint32_t> next(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < programs_.size(); ++i) {
    positions_[next[programs_[i]]++] = static_cast<std::uint32_t>(i);
  }
  frozen_ = true;
}

std::int64_t ReplayBoard::count_between(ProgramId program, std::size_t from,
                                        std::size_t to) const {
  const auto list = entries(program);
  const auto hi = std::lower_bound(list.begin(), list.end(), to);
  const auto lo = std::lower_bound(list.begin(), hi, from);
  return hi - lo;
}

bool ReplayBoard::holds(std::size_t index, ProgramId program,
                        sim::SimTime t) const {
  return index < times_.size() && times_[index] == t &&
         programs_[index] == program.value();
}

void ReplayView::advance_to(sim::SimTime t) {
  cut_at_ = t;
  expiry_at_ = t - board_->window();
}

void ReplayView::move_batch(sim::SimTime t) {
  const std::int64_t lag_ms = board_->lag().millis_count();
  const auto batch = sim::SimTime::millis(t.millis_count() / lag_ms * lag_ms);
  if (batch == batch_) return;
  // The own accesses come back in through the board once they fall before
  // the new boundary.
  own_.clear();
  advance_to(batch);
  batch_ = batch;
}

void ReplayView::on_boundary(sim::SimTime t) {
  if (lagged()) {
    move_batch(t);
    return;
  }
  advance_to(t);
}

void ReplayView::on_session_start(std::size_t index, ProgramId program,
                                  sim::SimTime t) {
  // The session's own start must be its entry on the shared timeline —
  // the strongest cheap check that shard replay and prebuild agree on the
  // trace order.
  VODCACHE_ASSERT(board_->holds(index, program, t));
  if (lagged()) {
    move_batch(t);
    std::int64_t* own = own_.find(program.value());
    if (own == nullptr) own = &own_.insert(program.value(), 0);
    ++*own;
    return;
  }
  // A cut still to search for is at most this one: it is a boundary's at
  // or before t.
  VODCACHE_ASSERT(cut_ <= index);
  cut_ = index + 1;
  cut_at_.reset();
  expiry_at_ = t - board_->window();
}

}  // namespace vodcache::cache
