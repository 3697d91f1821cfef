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
// straight from the sorted trace, so the orchestrator's prepass chain
// builds it while the shards replay.  It grows by immutable *pieces*: at
// the end of each epoch of the chunk grid the prepass seals what it read
// up to a time T, and from then on reads at event times up to T are
// answered.  A read at event time t touches only entries at times <= t,
// or the position just after them, at either lag: the cut and the expiry
// are positions of times <= t, and the counted entries past the cut (the
// shard's own at lag > 0) started at or before t.  So a shard's feed of a
// chunk needs only the piece that seals the chunk's end; every read past
// the sealed part is a precondition failure, never a silent race.
// Sealed pieces are read-only and shared by every shard; each shard owns
// one ReplayView, the two positions its own events have reached, which
// yields the visible counts without any cross-shard synchronization.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"
#include "util/ids.hpp"

namespace vodcache::cache {

// The trace-ordered access timeline, indexed per program.  add() appends
// in trace order; seal() turns everything added since the last seal into
// one immutable piece, and freeze() seals whatever is left.  A piece holds
// its entries' times and programs, and per program the ascending list of
// its entries' global positions (appending in trace order makes each list
// sorted already, so sealing is one counting pass and one placement pass,
// no sort) plus the program's entry count before the piece.  Slot j of a
// program's whole list is then slot j - base of the piece that holds it.
// A board frozen once is one piece: 16 bytes per entry (a time, a program
// and a list slot) plus two words per program.  Each later piece adds two
// words per program.
//
// One writer fills the board while readers query its sealed pieces: a
// seal publishes its piece with a release store, and a reader's acquire
// load of the piece count sees every sealed piece whole.  Pieces live in
// a table sized up front, so a seal never moves one a reader is in.
class ReplayBoard {
 public:
  // The most seal() and freeze() calls one board takes.
  static constexpr std::size_t kMaxPieces = 64;

  ReplayBoard(std::size_t program_count, sim::SimTime window,
              sim::SimTime lag);
  ReplayBoard(const ReplayBoard&) = delete;
  ReplayBoard& operator=(const ReplayBoard&) = delete;

  // Accesses must arrive in non-decreasing time order (trace order), none
  // before the last seal's time.
  void add(ProgramId program, sim::SimTime t);
  // Seals every entry added since the last seal as one piece.  Every later
  // add() is at or after `through`, so reads at event times up to
  // `through` are answered from here on.
  void seal(sim::SimTime through);
  // Seals whatever is left; reads at any time are answered.
  void freeze();

  // Sizing hint for streaming construction.
  void reserve(std::size_t count);

  // Sealed entries.
  [[nodiscard]] std::size_t size() const {
    const std::size_t sealed = sealed_pieces();
    return sealed == 0 ? 0 : pieces_[sealed - 1].end();
  }
  [[nodiscard]] std::size_t piece_count() const { return sealed_pieces(); }
  // The latest event time whose reads are answered.
  [[nodiscard]] sim::SimTime sealed_through() const {
    const std::size_t sealed = sealed_pieces();
    return sealed == 0 ? sim::SimTime::millis(-1)
                       : pieces_[sealed - 1].through;
  }
  [[nodiscard]] sim::SimTime window() const { return window_; }
  [[nodiscard]] sim::SimTime lag() const { return lag_; }

  // Sealed queries.  Positions are global entry indices; a program's slots
  // index its ascending list of entries.  Each one requires what it reads
  // to be sealed.
  //
  // The first position >= from whose time is >= t; every entry before
  // `from` must be earlier than t, and t at most sealed_through().
  [[nodiscard]] std::size_t first_at_or_after(sim::SimTime t,
                                              std::size_t from) const;
  // The first slot >= from of `program`'s list whose entry is at or after
  // `position` (at most size()); every slot before `from` must be earlier.
  // The search runs in the one piece that holds `position`: a binary
  // search without a hint (from == 0), else an exponential one from the
  // hint, or from the piece's start when the hint is in an earlier piece.
  [[nodiscard]] std::uint32_t slot_at_or_after(ProgramId program,
                                               std::size_t position,
                                               std::uint32_t from = 0) const;
  // The global position of `program`'s entry in `slot`.  `after` is a
  // position at or before that entry's: the search for the piece holding
  // the slot runs onward from the piece holding `after`.
  [[nodiscard]] std::uint32_t position_of(ProgramId program,
                                          std::uint32_t slot,
                                          std::size_t after) const;
  // `program`'s entries in positions [from, to): a search in the two
  // pieces at the ends.
  [[nodiscard]] std::int64_t count_between(ProgramId program,
                                           std::size_t from,
                                           std::size_t to) const {
    VODCACHE_EXPECTS(from <= to);
    return static_cast<std::int64_t>(slot_at_or_after(program, to)) -
           static_cast<std::int64_t>(slot_at_or_after(program, from));
  }
  // Whether entry `index` is `program`'s access at `t`.
  [[nodiscard]] bool holds(std::size_t index, ProgramId program,
                           sim::SimTime t) const;

 private:
  struct Piece {
    // Entries [begin, end()) on the global timeline, all sealed through
    // `through`.
    std::uint32_t begin = 0;
    sim::SimTime through;
    std::vector<sim::SimTime> times;
    std::vector<std::uint32_t> programs;
    // positions[offsets[p], offsets[p + 1]) are p's entries in this piece,
    // ascending; base[p] counts p's entries in earlier pieces.
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> positions;
    std::vector<std::uint32_t> base;

    [[nodiscard]] std::uint32_t end() const {
      return begin + static_cast<std::uint32_t>(times.size());
    }
    [[nodiscard]] std::span<const std::uint32_t> list(
        std::uint32_t program) const {
      return {positions.data() + offsets[program],
              offsets[program + 1] - offsets[program]};
    }
  };

  [[nodiscard]] std::size_t sealed_pieces() const {
    return sealed_.load(std::memory_order_acquire);
  }
  // The last of the first `sealed` pieces that begins at or before
  // `position`.
  [[nodiscard]] const Piece& piece_at(std::size_t position,
                                      std::size_t sealed) const;
  // Appends the unsealed entries as the next piece; the last one takes the
  // buffers whole.
  void seal_piece(sim::SimTime through, bool last);

  // Read by every shard.
  sim::SimTime window_;
  sim::SimTime lag_;
  std::size_t program_count_;
  // kMaxPieces slots, the first sealed_ of them published; begins_[i] is
  // piece i's begin, kept apart so a lookup scans one short array.
  std::vector<Piece> pieces_;
  std::vector<std::uint32_t> begins_;
  std::atomic<std::size_t> sealed_{0};

  // The writer's own state, on cache lines apart from the fields above:
  // it changes at every add() while shards read those.
  //
  // Unsealed entries, by global position from unsealed_begin_, the last
  // piece's end.
  alignas(64) std::size_t unsealed_begin_ = 0;
  std::vector<sim::SimTime> times_;
  std::vector<std::uint32_t> programs_;
  // The writer's copy of the last seal's time; frozen_ once freeze() ran.
  sim::SimTime through_ = sim::SimTime::millis(-1);
  bool frozen_ = false;
};

// A shard's view of a ReplayBoard: the positions its own events have
// reached, and the counts they imply.  Every event must be sealed on the
// board (its time at most sealed_through()).
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
