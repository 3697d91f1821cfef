// System-wide program popularity for every neighborhood's Global-LFU
// strategy (paper section VI-A, figure 13).
//
// The board keeps a sliding window of all session starts across the whole
// deployment.  Two visibility modes:
//
//  * lag == 0 ("Global"): neighborhoods see live counts.  Every count
//    change (new access or window expiry) is a board entry the reader's
//    cursor passed, so a reader re-ranks its cached programs exactly by
//    walking the entries passed since it last looked.
//  * lag > 0 ("Global, 30 minute lag" / "Global, 2 hour lag"): counts are
//    frozen at batch boundaries (multiples of the lag); between batches,
//    neighborhoods see the last batch's counts and augment them with their
//    own local accesses — "the local data is only augmented with global
//    information in batches after a certain length of time has passed".
//
// The board is only ever fed at *session starts*, and session starts come
// straight from the sorted trace, so the entire access timeline is the
// order the demux already walks.  The ReplayBoard is that timeline,
// appended by the demux ahead of the shards that read it; each shard owns
// one ReplayCursor, a read position its own events move, which yields the
// visible counts without any cross-shard synchronization.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/ids.hpp"
#include "util/stable_vector.hpp"

namespace vodcache::cache {

// The trace-ordered access timeline.  The job graph's demux chain
// appends it *chunk by chunk* while earlier entries are already being read
// by feed jobs on other workers — which is why the storage is a
// StableVector (appends never move existing elements) and why the reader
// (ReplayCursor) scans below an explicit `limit`: it may only look at
// entries [0, limit) for a watermark `limit` it learned through a graph
// edge (happens-before), and must never consult size() while a writer is
// live.  kNoLimit means "no concurrent writer exists; clamp to size()" —
// the contract for a finished board (finish jobs, or a caller that builds
// and freezes the board before replaying).
class ReplayBoard {
 public:
  struct Access {
    sim::SimTime time;
    ProgramId program;
  };

  static constexpr std::size_t kNoLimit =
      std::numeric_limits<std::size_t>::max();

  ReplayBoard(std::size_t program_count, sim::SimTime window,
              sim::SimTime lag);

  // Accesses must arrive in non-decreasing time order (trace order).
  void add(ProgramId program, sim::SimTime t);
  void freeze();

  // Sizing hint for streaming construction (pre-allocates blocks).
  void reserve(std::size_t count) { accesses_.reserve(count); }

  [[nodiscard]] const Access& access(std::size_t i) const {
    return accesses_[i];
  }
  // Owner-side only while appends are live; see the class comment.
  [[nodiscard]] std::size_t size() const { return accesses_.size(); }
  [[nodiscard]] std::size_t program_count() const { return program_count_; }
  [[nodiscard]] sim::SimTime window() const { return window_; }
  [[nodiscard]] sim::SimTime lag() const { return lag_; }

 private:
  sim::SimTime window_;
  sim::SimTime lag_;
  std::size_t program_count_;
  util::StableVector<Access> accesses_;
  bool frozen_ = false;
};

// A shard's read position over a ReplayBoard, moved by the shard's own
// events and read by every GlobalLFU cell of the shard:
//
//   * on_boundary(t) — a segment boundary at t runs after every session
//     start before t and before any at t, so every access before t is
//     visible;
//   * on_session_start(index, program, t) — the session at global trace
//     index `index` starts: every access up to and including its own is
//     visible.
//
// Lag 0: count() is the live in-window count, accesses at or after
// t - window.  Entries [expired(), ingested()) are the ones counted, so
// every live-count change is an entry that one of the two positions
// passed; a reader finds what changed since it last looked by walking
// from the positions it saw then.  Lag > 0: with B the last multiple of
// the lag <= t, count() is the accesses in [B - window, B) plus this
// shard's own accesses at or after B (an access exactly at B lands after
// the batch).  The cursor moves only
// when B moves; epoch() counts those moves.  Both are pure functions of
// the trace, never of which shard reads first.
class ReplayCursor {
 public:
  // The board need not be frozen yet: under the job-graph executor the
  // cursor is created before the demux chain has appended anything.  Only
  // the board's configuration (program count, window, lag) is read here.
  explicit ReplayCursor(const ReplayBoard& board);
  // Cells hold the cursor's address.
  ReplayCursor(const ReplayCursor&) = delete;
  ReplayCursor& operator=(const ReplayCursor&) = delete;

  // How many board entries the cursor may scan: the watermark the demux
  // wrote for the shard's current feed chunk (see ReplayBoard).  Bounding
  // by it is lossless: every entry at or past the watermark has time >=
  // the chunk end, and events only ask about times inside the chunk.
  void set_limit(std::size_t limit) { limit_ = limit; }

  void on_boundary(sim::SimTime t);
  // The session names its program and time so the cursor can check that
  // the shard's replay and the prebuilt timeline agree.
  void on_session_start(std::size_t index, ProgramId program, sim::SimTime t);

  [[nodiscard]] std::int64_t count(ProgramId program) const {
    VODCACHE_EXPECTS(program.value() < live_.size());
    return live_[program.value()];
  }
  // The board positions: entries before ingested() are counted in, and
  // entries before expired() are counted out again.  Both only grow.
  [[nodiscard]] std::size_t ingested() const { return ingest_; }
  [[nodiscard]] std::size_t expired() const { return expire_; }
  // Lag > 0: incremented each time the batch boundary moves.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] const ReplayBoard& board() const { return *board_; }

 private:
  [[nodiscard]] std::size_t bound() const;
  [[nodiscard]] bool lagged() const { return board_->lag() > sim::SimTime{}; }
  // Counts in every access before time t (within the bound).
  void ingest_before(sim::SimTime t);
  void ingest_to(std::size_t upto);
  void expire_to(sim::SimTime cutoff);
  // Lag > 0: moves the batch to the last boundary <= t, if it moved.
  void move_batch(sim::SimTime t);

  const ReplayBoard* board_;
  std::vector<std::int64_t> live_;
  std::size_t ingest_ = 0;  // next access index to count in
  std::size_t expire_ = 0;  // next access index to expire out
  std::size_t limit_ = ReplayBoard::kNoLimit;
  // Lag > 0 only: the current batch boundary B, and this shard's own
  // accesses at or after it (counted in live_ ahead of the board).
  sim::SimTime batch_;
  std::vector<ProgramId> own_since_batch_;
  std::uint64_t epoch_ = 0;
};

}  // namespace vodcache::cache
