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
// Segment boundaries wait in one FIFO.  The segment length is a
// constant, so playing a segment at time t queues the session's next
// boundary at t + segment; events run in time order, so the queued times
// never decrease and the FIFO pops them in (time, push order) — the seed's
// heap order, with no heap and no sort (see ARCHITECTURE.md, "Why a FIFO
// is the heap").  feed() runs every queued boundary due at or before each
// session start, boundaries first on ties; finish() drains the rest.
//
// A session holds one slot from its start to its final slice; a freed slot
// goes on a freelist and may be reused at once, since a session in its
// final slice has no boundary left in the queue.  Slots and the queue keep
// their high-water capacity, so the steady-state loop allocates nothing.
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
// the whole shadow matrix; no cell stands for no cache); the shard builds
// their policies and feeds the server one call per event.
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
#include "util/flat_map.hpp"

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
  // `failures` must be in time order.  `future` (may be null when no
  // Oracle cell reads it) and `board` (may be null when no GlobalLFU cell
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

  // Replays one batch of this shard's sessions in trace order.  A start
  // before the last one fed breaks the boundary queue's order, so it is a
  // precondition violation, never a silent reorder; so is a session that
  // outlasts its program (fills store the catalog's segment sizes).  The
  // batch is fully consumed; segment boundaries falling after its last
  // session stay pending for the next feed() or finish().  Every event runs
  // at or before the batch's last session start, so the board must be
  // sealed past it.
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
  // A queued segment boundary: the live session in `slot` plays its next
  // segment at `time_ms`.
  struct Boundary {
    std::int64_t time_ms = 0;
    std::uint32_t slot = 0;
  };

  // Claims a slot (freelist first) for the session, admits it with the
  // index server and plays its first segment.
  void start_session(const StreamSession& session);
  // Pops the earliest queued boundary and runs it: moves the view, applies
  // due failures, lets the switcher decide, then plays the segment that
  // begins there.
  void run_next_boundary();
  // Plays the segment beginning at `at`, then queues the session's next
  // boundary, or frees its slot after the final slice.
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
  // primary is the configured pair's cell; a no-cache primary is none
  // (Plan::primary == cells.size()).
  [[nodiscard]] IndexServer::Plan make_cells();

  const trace::Catalog& catalog_;
  const SystemConfig& config_;

  // Strategy backing state; must precede server_ (make_cells reads it).
  const cache::FutureIndex* future_;  // Oracle; null without an Oracle cell
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

  // A live session's clock, program, viewer and admit bits; bit c of
  // `admit` is cell c's admit decision (cache::kMaxCells bounds a
  // neighborhood at 64 cells).
  struct Slot {
    std::int64_t start_ms = 0;
    std::int64_t end_ms = 0;
    std::uint32_t program = 0;
    std::uint32_t viewer = 0;
    std::uint64_t admit = 0;
  };
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Every live session's next boundary, in event order.
  util::RingBuffer<Boundary> boundaries_;
  // The latest session start fed; every event run so far is at or before
  // it, so a later start may not precede it.
  std::int64_t last_start_ms_ = std::numeric_limits<std::int64_t>::min();

  std::vector<PendingFailure> failures_;
  std::size_t next_failure_ = 0;

  bool finished_ = false;
};

}  // namespace vodcache::core
