// System-wide program popularity for every neighborhood's Global-LFU
// strategy (paper section VI-A, figure 13).
//
// The board is the whole deployment's access timeline: one entry per
// session start, in trace order, so entry i is the session at global trace
// index i.  A neighborhood's count of a program is the number of its
// entries between two positions on that timeline.  Two visibility modes:
//
//  * lag == 0 ("Global"): neighborhoods see live counts — the entries
//    between the expiry position (the first entry no older than the
//    window) and the cut (everything the neighborhood's replay has
//    reached).
//  * lag > 0 ("Global, 30 minute lag" / "Global, 2 hour lag"): counts are
//    frozen at batch boundaries (multiples of the lag); between batches,
//    neighborhoods see the last batch's counts and augment them with their
//    own local accesses — "the local data is only augmented with global
//    information in batches after a certain length of time has passed".
//
// The board is only ever fed at *session starts*, and session starts come
// straight from the sorted trace, so the orchestrator's prepass builds it
// in one streaming pass before any shard replays.  Frozen, it is read-only
// and shared by every shard.  Each shard owns one ReplayView, the two
// positions its own events have reached, which yields the visible counts
// without any cross-shard synchronization.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"
#include "util/ids.hpp"

namespace vodcache::cache {

// The first index i >= from of ascending `values` with values[i] >= key,
// where every value before `from` is below `key`.  Exponential search from
// `from`: the cost grows with the log of the distance moved, not with the
// sequence's length, so a position that only moves forward pays for how
// far it moves.
template <typename T>
[[nodiscard]] std::size_t gallop(std::span<const T> values, std::size_t from,
                                 T key) {
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

// The trace-ordered access timeline, indexed per program.  add() appends
// in trace order; freeze() builds, per program, the ascending list of its
// global entry positions.  Appending in trace order makes each list sorted
// already, so freeze() is one counting pass and one placement pass, no
// sort.  The index holds 16 bytes per entry (a time, a program and a list
// slot) plus one offset per program.
class ReplayBoard {
 public:
  ReplayBoard(std::size_t program_count, sim::SimTime window,
              sim::SimTime lag);

  // Accesses must arrive in non-decreasing time order (trace order).
  void add(ProgramId program, sim::SimTime t);
  void freeze();

  // Sizing hint for streaming construction.
  void reserve(std::size_t count);

  [[nodiscard]] std::size_t size() const { return times_.size(); }
  [[nodiscard]] sim::SimTime window() const { return window_; }
  [[nodiscard]] sim::SimTime lag() const { return lag_; }

  // Frozen queries.  Positions are global entry indices.
  //
  // The first position >= from whose time is >= t; every entry before
  // `from` must be earlier than t.
  [[nodiscard]] std::size_t first_at_or_after(sim::SimTime t,
                                              std::size_t from) const {
    VODCACHE_EXPECTS(frozen_);
    return gallop(std::span<const sim::SimTime>(times_), from, t);
  }
  // `program`'s entries, ascending.
  [[nodiscard]] std::span<const std::uint32_t> entries(
      ProgramId program) const {
    VODCACHE_EXPECTS(frozen_);
    VODCACHE_EXPECTS(program.value() < program_count_);
    const std::uint32_t begin = offsets_[program.value()];
    const std::uint32_t end = offsets_[program.value() + 1];
    return {positions_.data() + begin, end - begin};
  }
  // `program`'s entries in positions [from, to).
  [[nodiscard]] std::int64_t count_between(ProgramId program,
                                           std::size_t from,
                                           std::size_t to) const;
  // Whether entry `index` is `program`'s access at `t`.
  [[nodiscard]] bool holds(std::size_t index, ProgramId program,
                           sim::SimTime t) const;

 private:
  sim::SimTime window_;
  sim::SimTime lag_;
  std::size_t program_count_;
  // By global position.
  std::vector<sim::SimTime> times_;
  std::vector<std::uint32_t> programs_;
  // Frozen: positions_[offsets_[p], offsets_[p + 1]) are p's entries,
  // ascending.
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> positions_;
  bool frozen_ = false;
};

// A shard's view of a frozen ReplayBoard: the positions its own events
// have reached, and the counts they imply.
//
//   * on_boundary(t) — a segment boundary at t runs after every session
//     start before t and before any at t, so the cut is the first entry at
//     or after t;
//   * on_session_start(index, program, t) — the session at global trace
//     index `index` starts: the cut is index + 1, its own entry included.
//
// Lag 0: count(p) is p's entries in [expiry(), cut()), where expiry() is
// the first entry no older than t - window.  Same-millisecond accesses
// resolve by global index, because the cut is a position, not a time.
// Lag > 0: with B the last multiple of the lag <= t, cut() and expiry()
// are those of a boundary at B, and count(p) adds this shard's own
// accesses of p at or after B (an access exactly at B lands after the
// batch).  The positions move only when B moves.  Both positions only
// grow, and both are pure functions of the trace, never of which shard
// reads first.  An event only notes where they go; the first read after
// it searches, so events no cell asks about cost no search.
class ReplayView {
 public:
  // Nothing of the board is read here: the orchestrator builds shards
  // before its prepass fills the board.
  explicit ReplayView(const ReplayBoard& board) : board_(&board) {}
  // Cells hold the view's address.
  ReplayView(const ReplayView&) = delete;
  ReplayView& operator=(const ReplayView&) = delete;

  void on_boundary(sim::SimTime t);
  // The session names its program and time so the view can check that
  // the shard's replay and the prebuilt timeline agree.
  void on_session_start(std::size_t index, ProgramId program, sim::SimTime t);

  [[nodiscard]] std::int64_t count(ProgramId program) const {
    return board_->count_between(program, expiry(), cut()) + own(program);
  }
  // Lag > 0: this shard's accesses of `program` since the batch boundary,
  // all past cut(); always 0 at lag 0.
  [[nodiscard]] std::int64_t own(ProgramId program) const {
    const std::int64_t* own = own_.find(program.value());
    return own == nullptr ? 0 : *own;
  }
  [[nodiscard]] std::size_t cut() const {
    if (cut_at_) {
      cut_ = board_->first_at_or_after(*cut_at_, cut_);
      cut_at_.reset();
    }
    return cut_;
  }
  [[nodiscard]] std::size_t expiry() const {
    if (expiry_at_) {
      expiry_ = board_->first_at_or_after(*expiry_at_, expiry_);
      expiry_at_.reset();
    }
    return expiry_;
  }
  [[nodiscard]] const ReplayBoard& board() const { return *board_; }

 private:
  [[nodiscard]] bool lagged() const { return board_->lag() > sim::SimTime{}; }
  // Notes that both positions move to those of time t.
  void advance_to(sim::SimTime t);
  // Lag > 0: moves the batch to the last boundary <= t, if it moved.
  void move_batch(sim::SimTime t);

  const ReplayBoard* board_;
  // Entries before cut_ are visible; entries before expiry_ have left the
  // window.  Each has a time still to search for when an event moved it
  // and no read has asked since.
  mutable std::size_t cut_ = 0;
  mutable std::size_t expiry_ = 0;
  mutable std::optional<sim::SimTime> cut_at_;
  mutable std::optional<sim::SimTime> expiry_at_;
  // Lag > 0 only: the current batch boundary B, and this shard's own
  // accesses at or after it, per program.
  sim::SimTime batch_;
  util::FlatMap64<std::int64_t> own_;
};

}  // namespace vodcache::cache
