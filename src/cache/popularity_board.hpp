// System-wide program popularity for every neighborhood's Global-LFU
// strategy (paper section VI-A, figure 13).
//
// The board keeps a sliding window of all session starts across the whole
// deployment.  Two visibility modes:
//
//  * lag == 0 ("Global"): neighborhoods see live counts.  Every count
//    change (new access or window expiry) is reported to the reader so it
//    can re-rank cached programs exactly.
//  * lag > 0 ("Global, 30 minute lag" / "Global, 2 hour lag"): counts are
//    frozen at batch boundaries (multiples of the lag); between batches,
//    neighborhoods see the last snapshot and augment it with their own
//    local accesses — "the local data is only augmented with global
//    information in batches after a certain length of time has passed".
//
// The board is only ever fed at *session starts*, and session starts come
// straight from the sorted trace, so the entire access timeline is the
// order the demux already walks.  The ReplayBoard is that timeline,
// appended by the demux ahead of the shards that read it; each shard owns a
// ReplayCursor, a cheap mutable read position that yields the visible
// counts at any (time, trace-position) pair without any cross-shard
// synchronization.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/time.hpp"
#include "util/ids.hpp"
#include "util/stable_vector.hpp"

namespace vodcache::cache {

// The trace-ordered access timeline.  The job graph's demux chain
// appends it *chunk by chunk* while earlier entries are already being read
// by feed jobs on other workers — which is why the storage is a
// StableVector (appends never move existing elements) and why every
// scanning API takes an explicit `limit`: a reader may only look at
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

  // Index of the first access with time >= t, scanning forward from `from`
  // (which must be at or before that index), never past `limit`.  Because
  // the timeline is exactly the trace's session sequence, this doubles as
  // the replay position at a boundary event at time t —
  // each shard advances its own monotone cursor through it.  Bounding by a
  // chunk watermark is lossless: every entry at index >= the watermark has
  // time >= the chunk end, and boundary queries only ask about times
  // inside the chunk.
  [[nodiscard]] std::size_t position_at(sim::SimTime t, std::size_t from,
                                        std::size_t limit = kNoLimit) const {
    const std::size_t bound = limit == kNoLimit ? accesses_.size() : limit;
    while (from < bound && accesses_[from].time < t) ++from;
    return from;
  }

  [[nodiscard]] const Access& access(std::size_t i) const {
    return accesses_[i];
  }
  // Owner-side only while appends are live; see the class comment.
  [[nodiscard]] std::size_t size() const { return accesses_.size(); }
  [[nodiscard]] std::size_t program_count() const { return program_count_; }
  [[nodiscard]] sim::SimTime window() const { return window_; }
  [[nodiscard]] sim::SimTime lag() const { return lag_; }
  [[nodiscard]] bool frozen() const { return frozen_; }

 private:
  sim::SimTime window_;
  sim::SimTime lag_;
  std::size_t program_count_;
  util::StableVector<Access> accesses_;
  bool frozen_ = false;
};

// A shard-local read position over a ReplayBoard:
//
//   * advance(t, upto) makes the first `upto` accesses visible and expires
//     ones older than t - window — the system-wide state once the replay
//     has reached `upto` records and the clock reads t.
//     Both arguments are clamped monotone, so out-of-order no-op calls
//     (same event, several queries) are safe.  Under the job-graph
//     executor the additional `limit` bounds every board scan to the
//     entries the caller's graph edges make visible (see ReplayBoard).
//   * lag > 0 publishes a snapshot whenever a batch boundary is crossed;
//     the snapshot counts accesses in [boundary - window, boundary), which
//     depends only on the trace, never on which shard asks first.
//   * the change callback fires for every program whose live count
//     changes (Global-LFU only wires it up when lag == 0).
class ReplayCursor {
 public:
  using ChangeCallback = std::function<void(ProgramId)>;

  // The board need not be frozen yet: under the job-graph executor the
  // cursor is created before the demux chain has appended anything.  Only
  // the board's configuration (program count, window, lag) is read here.
  explicit ReplayCursor(const ReplayBoard& board,
                        ChangeCallback on_change = {});

  void advance(sim::SimTime t, std::size_t upto,
               std::size_t limit = ReplayBoard::kNoLimit);
  // Count in the caller's own session start (the access at the current
  // read position).  The caller names it so the cursor can check that the
  // shard's replay and the prebuilt timeline agree.
  void ingest_local(ProgramId program, sim::SimTime t,
                    std::size_t limit = ReplayBoard::kNoLimit);

  [[nodiscard]] std::int64_t visible_count(ProgramId program) const;
  // Incremented once per advance that crossed >= 1 batch boundary.
  [[nodiscard]] std::uint64_t snapshot_epoch() const { return epoch_; }
  [[nodiscard]] const ReplayBoard& board() const { return *board_; }

 private:
  void publish_snapshots(sim::SimTime t, std::size_t bound);
  void ingest_to(std::size_t upto);
  void expire_to(sim::SimTime cutoff);
  void notify(ProgramId program);

  const ReplayBoard* board_;
  ChangeCallback on_change_;
  std::vector<std::int64_t> live_;
  std::vector<std::int64_t> snapshot_;  // lag > 0 only
  std::size_t ingest_ = 0;              // next access index to count in
  std::size_t expire_ = 0;              // next access index to expire out
  sim::SimTime next_batch_;
  std::uint64_t epoch_ = 0;
};

}  // namespace vodcache::cache
