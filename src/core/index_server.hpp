// The headend index server (paper section IV-B, figures 4 and 5).
//
// One per neighborhood.  It monitors every request to compute popularity,
// dictates placement ("placement is not probabilistic"), and directs each
// segment request:
//
//   hit  (fig 5): locate the storing peer; if it has a free stream slot it
//                 broadcasts the segment on the coax.
//   miss (fig 4): the central media server streams the segment over fiber
//                 and the headend broadcasts it; if the program has been
//                 admitted to the cache, a peer is told to read the same
//                 broadcast off the wire and store it (no extra bandwidth).
//
// With a tier tree configured (beyond the paper's two levels), a miss
// walks up the tree first: the lowest tier node holding the program in its
// prefetch plan serves it, and only a full walk-through reaches the
// origin.  Tier traffic still rides this neighborhood's fiber feed, so
// coax and fiber metering are unchanged — only who pays for the bytes
// moves.
//
// Every placement decision — admit, evict, fill, hit or miss — is made by
// the neighborhood's cache cells (cache::CacheCell), which the server owns
// in one vector and drives against one session stream, in one pass.  In each
// cell the scorer's cached set says which programs are admitted and the
// SegmentStore says where their segments are; program and segment sizes come
// from the run's catalog.  The vector holds the configured pair alone, or —
// in shadow-matrix and policy-switch runs — one cell per registered
// (eviction scorer x admission policy) pair, scorer-major in registry order:
// the matrix's rows.  One cell is the primary (none under
// StrategyKind::None, where every segment is a cold miss): the server meters
// and serves off its classification, counts the sessions and segments every
// cell shares, and adds only the side effects a shadow must not have — coax,
// peer and tier metering, the tier walk and media-server serve, and the
// failure counters.  None of those changes a hit/miss classification or a
// fill decision, and cells never move, so each cell's counters equal a
// standalone run of its pair (pinned per replay mode in
// tests/shadow_bank_test.cpp) and the primary's report stays byte-identical
// with shadows on.  A policy switch makes another cell the primary and moves
// no state.
//
// Zero steady-state allocations: stores are FlatMap64/PooledArena, stream
// slots are one fixed table per cell, and the shard's shared access
// history is flat tables and a fixed sketch (enforced by
// tests/allocation_audit_test.cpp with shadows on).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cache/cache_cell.hpp"
#include "cache/segment_store.hpp"
#include "core/config.hpp"
#include "core/media_server.hpp"
#include "sim/rate_meter.hpp"
#include "trace/catalog.hpp"

namespace vodcache::core {

class TierSystem;

using cache::ServeResult;

class IndexServer {
 public:
  // A neighborhood's cells before construction, in cell order: the first
  // `rows` are the shadow matrix's rows (0 when the matrix is off), and
  // `primary` indexes the cell the server serves from; `cells.size()`
  // means none, and the origin serves every segment.
  struct Plan {
    std::vector<cache::CacheCell::Policy> cells;
    std::size_t rows = 0;
    std::size_t primary = 0;
  };

  // Builds the plan's cells and serves from `plan.primary`.  A cell's
  // admission may be null, which means always-admit (the paper's
  // behaviour).  The cells read program sizes from `catalog`, which must
  // outlive the server.
  // `tiers` (owned by the orchestrator, outliving the server) enables the
  // multi-tier miss walk; null is the paper's two-level world.
  // `tier_nodes` is this neighborhood's node path, one node id per level.
  IndexServer(NeighborhoodId id, std::uint32_t peer_count,
              const SystemConfig& config, const trace::Catalog& catalog,
              Plan plan,
              MediaServer& media_server, sim::SimTime horizon,
              const TierSystem* tiers = nullptr,
              std::vector<std::uint32_t> tier_nodes = {});

  // The cells keep the server's coax meter address: neither copyable nor
  // movable.
  IndexServer(const IndexServer&) = delete;
  IndexServer& operator=(const IndexServer&) = delete;

  // Every cell's session admit decision (cache::CacheCell::start_session):
  // bit c is cell c's.
  [[nodiscard]] std::uint64_t start_session(ProgramId program,
                                            sim::SimTime t);

  // Serve one segment transmission for a viewer in this neighborhood:
  // every cell classifies it (and fills off a miss broadcast) under its
  // bit of `admit_mask`; the server meters the coax, and — by the
  // primary's classification — a peer hit on the peer meter, a miss on the
  // serving tier or the media server.  `full_slice` says the transmission
  // covers the segment's entire nominal duration (only fully-broadcast
  // segments can be cached off the wire).
  ServeResult serve_segment(PeerId viewer, cache::SegmentKey key,
                            sim::Interval interval, std::uint64_t admit_mask,
                            bool full_slice);

  // Viewer playback always occupies a receive slot on the viewer's box for
  // the whole session (counts against its limit when asked to serve).
  void occupy_viewer_slot(PeerId viewer, sim::Interval interval);

  // Failure injection: the peer's disk contents are lost (box swap/crash)
  // in every cell; see cache::CacheCell::fail_peer.  Counts the failure
  // and the primary's bytes.
  void fail_peer(PeerId peer);

  // Live policy switching (cache::PolicySwitcher): serve from `cell` from
  // now on.  No state moves; the counters stay one continuous history.
  void promote(std::size_t cell);

  [[nodiscard]] NeighborhoodId id() const { return id_; }
  [[nodiscard]] std::uint32_t peer_count() const { return peer_count_; }
  [[nodiscard]] std::span<const cache::CacheCell> cells() const {
    return cells_;
  }
  // The shadow matrix's rows: the leading cells, one per registered pair.
  [[nodiscard]] std::size_t pair_count() const { return rows_; }
  [[nodiscard]] std::size_t primary() const { return primary_; }
  [[nodiscard]] const cache::SegmentStore& store() const {
    VODCACHE_EXPECTS(primary_ < cells_.size());
    return cells_[primary_].store();
  }
  // All traffic on this neighborhood's coax (hits and misses alike).
  [[nodiscard]] const sim::RateMeter& coax_meter() const { return coax_meter_; }
  // The peer-originated share of that traffic (hits only).
  [[nodiscard]] const sim::RateMeter& peer_meter() const { return peer_meter_; }
  // The share absorbed by tier `level` (tiered runs only; same
  // horizon-clipping as every other meter, so byte conservation holds
  // exactly: coax == peer + sum(tiers) + origin).
  [[nodiscard]] const sim::RateMeter& tier_meter(std::size_t level) const {
    return tier_meters_[level];
  }

  // The primary's cell counters — one continuous history across
  // promotions — plus the primary-only counters.
  struct Counters : cache::CellCounters {
    std::uint64_t peer_failures = 0;
    double wiped_bytes = 0.0;
    // Per tier level (SystemConfig::tiers order): neighborhood misses the
    // level's node absorbed.  Empty in the two-level world.
    std::vector<std::uint64_t> tier_hits;
  };
  [[nodiscard]] Counters counters() const;
  [[nodiscard]] std::uint64_t segments() const { return counters_.segments; }
  // Cell `cell`'s counters: a standalone run of its pair.
  [[nodiscard]] cache::CellCounters counters(std::size_t cell) const;

 private:
  NeighborhoodId id_;
  std::uint32_t peer_count_;
  DataRate stream_rate_;
  MediaServer& media_server_;
  sim::RateMeter coax_meter_;
  sim::RateMeter peer_meter_;
  // Each cell keeps coax_meter_'s address, so the vector never grows after
  // construction.
  std::vector<cache::CacheCell> cells_;
  std::size_t rows_;
  std::size_t primary_;
  const TierSystem* tiers_;
  std::vector<std::uint32_t> tier_nodes_;
  std::vector<sim::RateMeter> tier_meters_;
  // The primary-only counters; the CellCounters base holds the sessions,
  // the segments, and the offset that keeps counters() continuous: earlier
  // primaries' counts minus the current primary cell's at its promotion.
  Counters counters_;
};

}  // namespace vodcache::core
