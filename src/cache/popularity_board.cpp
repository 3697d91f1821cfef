#include "cache/popularity_board.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "util/assert.hpp"
#include "util/group_by_key.hpp"

namespace vodcache::cache {

namespace {

// The first index i >= from of ascending `values` with values[i] >= key,
// where every value before `from` is below `key`.  Exponential search from
// `from`: the cost grows with the log of the distance moved, not with the
// sequence's length, so a position that only moves forward pays for how
// far it moves.
template <typename T>
std::size_t gallop(std::span<const T> values, std::size_t from, T key) {
  std::size_t lower = from;
  std::size_t upper = from;
  std::size_t step = 1;
  while (upper < values.size() && values[upper] < key) {
    lower = upper + 1;
    upper = lower + step;
    step *= 2;
  }
  upper = std::min(upper, values.size());
  return static_cast<std::size_t>(
      std::lower_bound(values.begin() + static_cast<std::ptrdiff_t>(lower),
                       values.begin() + static_cast<std::ptrdiff_t>(upper),
                       key) -
      values.begin());
}

}  // namespace

ReplayBoard::ReplayBoard(std::size_t program_count, sim::SimTime window,
                         sim::SimTime lag)
    : window_(window),
      lag_(lag),
      program_count_(program_count),
      pieces_(kMaxPieces),
      begins_(kMaxPieces, 0) {
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
  VODCACHE_EXPECTS(t >= through_);
  VODCACHE_EXPECTS(times_.empty() || t >= times_.back());
  // Positions are stored as 32-bit list slots.
  VODCACHE_EXPECTS(unsealed_begin_ + times_.size() <
                   std::numeric_limits<std::uint32_t>::max());
  times_.push_back(t);
  programs_.push_back(program.value());
}

void ReplayBoard::seal(sim::SimTime through) {
  VODCACHE_EXPECTS(!frozen_);
  VODCACHE_EXPECTS(through >= through_);
  seal_piece(through, /*last=*/false);
}

void ReplayBoard::freeze() {
  VODCACHE_EXPECTS(!frozen_);
  seal_piece(sim::SimTime::millis(std::numeric_limits<std::int64_t>::max()),
             /*last=*/true);
  frozen_ = true;
}

void ReplayBoard::seal_piece(sim::SimTime through, bool last) {
  // Only this writer stores the count, so a relaxed load reads its own.
  const std::size_t n = sealed_.load(std::memory_order_relaxed);
  VODCACHE_EXPECTS(n < kMaxPieces);
  Piece& piece = pieces_[n];
  piece.begin = static_cast<std::uint32_t>(unsealed_begin_);
  piece.through = through;
  if (last) {
    piece.times = std::move(times_);
    piece.programs = std::move(programs_);
  } else {
    // Copied to size; the buffers keep their capacity for the next piece.
    piece.times.assign(times_.begin(), times_.end());
    piece.programs.assign(programs_.begin(), programs_.end());
    times_.clear();
    programs_.clear();
  }
  piece.base.assign(program_count_, 0);
  if (n > 0) {
    const Piece& previous = pieces_[n - 1];
    for (std::size_t p = 0; p < program_count_; ++p) {
      piece.base[p] = previous.base[p] + previous.offsets[p + 1] -
                      previous.offsets[p];
    }
  }
  // Trace order is each program's ascending order.
  piece.positions.resize(piece.programs.size());
  util::group_by_key(piece.programs, program_count_, piece.offsets,
                     [&](std::uint32_t slot, std::size_t i) {
                       piece.positions[slot] =
                           piece.begin + static_cast<std::uint32_t>(i);
                     });
  begins_[n] = piece.begin;
  unsealed_begin_ = piece.end();
  through_ = through;
  sealed_.store(n + 1, std::memory_order_release);
}

const ReplayBoard::Piece& ReplayBoard::piece_at(std::size_t position,
                                                std::size_t sealed) const {
  const auto first = begins_.begin();
  const auto after = std::upper_bound(
      first + 1, first + static_cast<std::ptrdiff_t>(sealed), position);
  return pieces_[static_cast<std::size_t>(after - first) - 1];
}

std::size_t ReplayBoard::first_at_or_after(sim::SimTime t,
                                           std::size_t from) const {
  const std::size_t sealed = sealed_pieces();
  VODCACHE_EXPECTS(sealed > 0 && t <= pieces_[sealed - 1].through);
  const std::size_t end = pieces_[sealed - 1].end();
  VODCACHE_EXPECTS(from <= end);
  // Onward from the piece holding `from`; a piece whose entries are all
  // earlier than t hands the search to the next.
  for (const Piece* piece = &piece_at(from, sealed);
       piece != pieces_.data() + sealed; ++piece) {
    const std::size_t local =
        gallop(std::span<const sim::SimTime>(piece->times),
               std::max<std::size_t>(from, piece->begin) - piece->begin, t);
    if (local < piece->times.size()) return piece->begin + local;
  }
  return end;
}

std::uint32_t ReplayBoard::slot_at_or_after(ProgramId program,
                                            std::size_t position,
                                            std::uint32_t from) const {
  const std::size_t sealed = sealed_pieces();
  VODCACHE_EXPECTS(sealed > 0 && position <= pieces_[sealed - 1].end());
  VODCACHE_EXPECTS(program.value() < program_count_);
  const Piece& piece = piece_at(position, sealed);
  const auto list = piece.list(program.value());
  const std::uint32_t base = piece.base[program.value()];
  const auto key = static_cast<std::uint32_t>(position);
  if (from == 0) {
    return base + static_cast<std::uint32_t>(
                      std::lower_bound(list.begin(), list.end(), key) -
                      list.begin());
  }
  // A hint in an earlier piece: the answer is likely near this one's
  // start, so the search gallops from there.
  const std::size_t start =
      from > base ? std::min<std::size_t>(from - base, list.size()) : 0;
  return base + static_cast<std::uint32_t>(gallop(list, start, key));
}

std::uint32_t ReplayBoard::position_of(ProgramId program,
                                       std::uint32_t slot,
                                       std::size_t after) const {
  const std::size_t sealed = sealed_pieces();
  VODCACHE_EXPECTS(sealed > 0 && after <= pieces_[sealed - 1].end());
  VODCACHE_EXPECTS(program.value() < program_count_);
  // The last piece whose base is at most `slot` holds it, if any does.
  const Piece* piece = &piece_at(after, sealed);
  const Piece* const last = pieces_.data() + sealed - 1;
  while (piece != last && (piece + 1)->base[program.value()] <= slot) {
    ++piece;
  }
  const auto list = piece->list(program.value());
  const std::uint32_t local = slot - piece->base[program.value()];
  VODCACHE_EXPECTS(local < list.size());
  return list[local];
}

bool ReplayBoard::holds(std::size_t index, ProgramId program,
                        sim::SimTime t) const {
  const std::size_t sealed = sealed_pieces();
  VODCACHE_EXPECTS(sealed > 0 && index < pieces_[sealed - 1].end());
  const Piece& piece = piece_at(index, sealed);
  return piece.times[index - piece.begin] == t &&
         piece.programs[index - piece.begin] == program.value();
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
  VODCACHE_EXPECTS(t <= board_->sealed_through());
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
