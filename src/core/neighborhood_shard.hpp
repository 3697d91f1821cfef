// NeighborhoodShard: one neighborhood's complete simulation stack — index
// server, cache, session slots, segment-boundary scheduling, and a private
// slice of the central media server — consuming its neighborhood's session
// stream incrementally.
//
// The serial engine (the seed's VodSystem::run) merged the whole sorted
// trace with one global boundary queue; but each neighborhood's state only
// ever reacts to its own events, so replaying the per-neighborhood
// subsequence in isolation performs the identical per-neighborhood event
// sequence.  Sessions arrive through feed() in batches (the orchestrator's
// streaming demux hands each shard its slice of one time chunk at a time);
// how the subsequence is split into batches is invisible to the event
// order, because a boundary past the last-fed session simply waits for the
// next batch (or finish()).
//
// Boundary events are *batched*, not queued.  A session's boundary times
// are fully determined at its start — start + k*segment for k >= 1 while
// that lies before the session end — so instead of a binary heap pushed
// and popped once per event, feed() generates every boundary due within
// the batch into a scratch buffer, sorts it once by (time, global session
// index), and merges it against the session starts; finish() schedules
// and runs the remaining boundaries the same way.  This is byte-
// identical to the heap order the seed used (see ARCHITECTURE.md, "Why
// sorting by global index reproduces the heap"): among simultaneous
// boundaries the heap's (time, push-sequence) order provably equals
// ascending global session index, and the boundaries-first tie rule
// against session starts is applied by the same comparison either way.
//
// Session slots are parallel arrays (structure-of-arrays): the boundary
// generator scans only the session clocks — three int64 lanes — without
// dragging the rest of each session through the cache, and a freed slot is
// recycled through a freelist, so the steady-state loop allocates nothing.
//
// The two cross-shard couplings are decoupled up front:
//
//  * central-server bandwidth: each shard meters misses into its own
//    MediaServer; the orchestrator reduces them in shard-index order;
//  * global popularity (GlobalLFU): a ReplayBoard — the whole
//    deployment's access timeline, indexed per program — built by the
//    orchestrator's prepass chain in immutable pieces, each sealed before
//    any feed that reads it runs; the shard's one ReplayView holds the two
//    board positions its own events have reached (the cut and the
//    expiry), and every GlobalLFU cell of the shard counts a program's
//    entries between them (see cache/popularity_board.hpp for the
//    position contract).  Moving the view is a search, not a walk: no
//    shard touches the entries of other neighborhoods' accesses.  The
//    shard's one AccessHistory is local popularity, read by every cell
//    alike.
//
// The index server owns the neighborhood's cells (the configured pair, or
// the whole shadow matrix); the shard builds their policies and feeds the
// server one call per event.
//
// A shard touches no mutable state outside itself, so shards can run on
// any thread, in any order, and produce bit-identical results.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "cache/access_history.hpp"
#include "cache/future_index.hpp"
#include "cache/policy_switcher.hpp"
#include "cache/popularity_board.hpp"
#include "core/config.hpp"
#include "core/index_server.hpp"
#include "core/media_server.hpp"
#include "core/report.hpp"
#include "trace/catalog.hpp"
#include "trace/trace.hpp"

namespace vodcache::core {

class NeighborhoodShard {
 public:
  // One of this shard's sessions as delivered by the streaming demux: the
  // record itself (by value — there is no global session vector to point
  // into), its position in the global sorted sequence (its ReplayBoard
  // entry), and the viewer's peer slot, resolved from the topology up
  // front so the shard never needs the topology itself.
  struct StreamSession {
    trace::SessionRecord record;
    std::uint64_t index = 0;
    PeerId viewer;
  };

  // One failure wave's effect on this neighborhood, with the peer draws
  // pre-rolled by the orchestrator (the seed's RNG stream runs across all
  // neighborhoods in order, so the draws cannot be made shard-locally).
  struct PendingFailure {
    sim::SimTime time;
    std::vector<PeerId> peers;
  };

  // `catalog`, `config`, `future`, and `board` must outlive the shard.
  // `failures` must be in time order.  `future` (never null; empty for
  // non-Oracle strategies) and `board` (may be null when no GlobalLFU cell
  // reads it) may be filled *after* shard construction: under the job-graph
  // executor the orchestrator's prepass chain fills them, and a feed
  // reads only what the epochs it waits for have sealed — the board up
  // to the chunk's last event, the future index whole.
  // `tiers` (nullable; owned by the orchestrator like `catalog`) enables
  // the multi-tier miss walk with `tier_nodes` as this neighborhood's node
  // path — a feed reads only windows already published, which never
  // change, so the no-shared-mutable-state determinism argument is
  // untouched.
  NeighborhoodShard(NeighborhoodId id, std::uint32_t peer_count,
                    const trace::Catalog& catalog, sim::SimTime horizon,
                    const SystemConfig& config,
                    const cache::FutureIndex* future,
                    std::shared_ptr<const cache::ReplayBoard> board,
                    std::vector<PendingFailure> failures,
                    const TierSystem* tiers = nullptr,
                    std::vector<std::uint32_t> tier_nodes = {});

  NeighborhoodShard(const NeighborhoodShard&) = delete;
  NeighborhoodShard& operator=(const NeighborhoodShard&) = delete;

  // Replays one batch of this shard's sessions (trace order, starts no
  // earlier than anything previously fed).  The batch is fully consumed;
  // segment boundaries falling after its last session stay pending for the
  // next feed() or finish().  Every event runs at or before the batch's
  // last session start, so the board must be sealed past it.
  void feed(std::span<const StreamSession> batch);

  // Plays out every still-active session and applies trailing failure
  // waves.  Must be called exactly once, after the last feed().
  // `failure_flush` is the time of the last event across the *whole*
  // simulation: failures up to it are applied even after this shard's own
  // events run out, exactly as the serial engine would have while other
  // neighborhoods were still active (pass a negative time when the trace
  // has no events at all).  It is a finish() argument rather than a
  // constructor one because under the job-graph executor the shard is
  // built before the demux has seen the whole trace.
  void finish(sim::SimTime failure_flush);

  [[nodiscard]] NeighborhoodId id() const { return server_.id(); }
  [[nodiscard]] const IndexServer& index_server() const { return server_; }
  [[nodiscard]] const MediaServer& media_server() const { return media_; }
  // The index server as the owner of the shadow matrix's rows; null unless
  // SystemConfig::shadow_matrix or policy_switch is on.
  [[nodiscard]] const IndexServer* shadow_bank() const {
    return server_.pair_count() > 0 ? &server_ : nullptr;
  }
  // The promotions this neighborhood performed, in event order.  Empty
  // unless SystemConfig::policy_switch is on.
  [[nodiscard]] std::span<const PolicySwitchRecord> switch_log() const {
    return switch_log_;
  }

 private:
  // A segment boundary due within the current batch.  Sorted by
  // (time_ms, index); `index` is the owning session's global trace index,
  // which reproduces the seed's heap tie order exactly.
  struct BoundaryEvent {
    std::int64_t time_ms = 0;
    std::uint64_t index = 0;
    std::uint32_t slot = 0;
  };

  // Claims a slot (freelist first) and writes the session into the SoA
  // lanes; does not touch the index server.
  [[nodiscard]] std::uint32_t assign_slot(const StreamSession& session);
  // Admits the session with the index server and plays its first segment.
  void start_session(const StreamSession& session, std::uint32_t slot);
  // Appends every not-yet-generated boundary of `slot` with time <=
  // `bound_ms` to scratch_.
  void generate_boundaries(std::uint32_t slot, std::int64_t bound_ms);
  // Fills scratch_ with every live slot's boundaries with time <=
  // `bound_ms`, in event order.
  void schedule_boundaries(std::int64_t bound_ms);
  // One boundary event: moves the view, applies due failures, lets the
  // switcher decide, then plays the segment that begins there.
  void run_boundary(const BoundaryEvent& event);
  // Plays the segment beginning at `at`; frees the slot after the final
  // slice.  Boundary scheduling is the generator's job, not this one's.
  void play_segment(std::uint32_t slot, sim::SimTime at);
  // Applies pre-rolled peer failures whose time has come (<= now).
  void apply_failures(sim::SimTime now);
  // Live policy switching: asks the switcher whether a shadow cell's
  // k-window streak completed at `t`, and if so logs the promotion and
  // makes that cell the index server's primary.  Called before every
  // event (boundary or session start); no-op unless
  // SystemConfig::policy_switch is on.
  void maybe_switch(sim::SimTime t);

  // Policy-engine instantiation through one registry walk (this shard's
  // context): the configured pair alone, or — with the shadow matrix or
  // policy switching on — every registered (scorer x admission) pair,
  // scorer-major in registry order, StrategyKind::None skipped.  The
  // primary is the configured pair's cell; a no-cache primary is one
  // extra cell after the rows.
  [[nodiscard]] IndexServer::Plan make_cells();

  const trace::Catalog& catalog_;
  const SystemConfig& config_;

  // Strategy backing state; must precede server_ (make_cells reads it).
  const cache::FutureIndex* future_;                   // Oracle
  std::shared_ptr<const cache::ReplayBoard> board_;    // GlobalLFU
  // Over board_, moved by this shard's events; null unless a GlobalLFU
  // cell reads it.
  std::unique_ptr<cache::ReplayView> view_;
  // Null when no cell reads it (a no-cache shard).
  std::unique_ptr<cache::AccessHistory> history_;

  MediaServer media_;
  IndexServer server_;
  // Policy-switch mode only (null otherwise).
  std::unique_ptr<cache::PolicySwitcher> switcher_;
  std::vector<PolicySwitchRecord> switch_log_;

  // Session slots, structure-of-arrays.  A free slot holds kFreeSlot in
  // its start lane; live slots keep the next boundary still to generate in
  // slot_next_ms_ (a value at or past the end lane means the session's
  // remaining events are all generated already).
  static constexpr std::int64_t kFreeSlot =
      std::numeric_limits<std::int64_t>::min();
  std::vector<std::int64_t> slot_start_ms_;
  std::vector<std::int64_t> slot_end_ms_;
  std::vector<std::int64_t> slot_next_ms_;
  std::vector<std::uint64_t> slot_index_;
  std::vector<std::uint32_t> slot_program_;
  std::vector<std::uint32_t> slot_viewer_;
  // Bit c is cell c's admit decision for the session in this slot
  // (cache::kMaxCells bounds a neighborhood at 64 cells).
  std::vector<std::uint64_t> slot_admit_;
  std::vector<std::uint32_t> free_slots_;

  // Per-feed scratch (high-water capacity, reused every batch).
  std::vector<BoundaryEvent> scratch_;
  std::vector<std::uint32_t> new_slots_;

  std::vector<PendingFailure> failures_;
  std::size_t next_failure_ = 0;

  bool finished_ = false;
};

}  // namespace vodcache::core
