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
// the server's cache::CacheCell, the same code every shadow cell runs.
// The server adds only the primary's side effects: coax, peer and tier
// metering, the tier walk and media-server serve, and the failure
// counters.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/admission.hpp"
#include "cache/cache_cell.hpp"
#include "cache/segment_store.hpp"
#include "cache/strategy.hpp"
#include "core/config.hpp"
#include "core/media_server.hpp"
#include "sim/rate_meter.hpp"

namespace vodcache::core {

class TierSystem;

using cache::ServeResult;

// The cell settings a SystemConfig implies (shared by the primary and the
// shard's shadow bank).
[[nodiscard]] cache::CacheCell::Settings cell_settings(
    const SystemConfig& config);

class IndexServer {
 public:
  // Composes one eviction scorer with one admission policy.  `scorer` may
  // be null (StrategyKind::None: no cache at all); `admission` may be null,
  // which means always-admit (the paper's behaviour) — convenient for
  // direct construction in tests, while the shard always passes a policy
  // built from the registry.
  // `tiers` (owned by the orchestrator, outliving the server) enables the
  // multi-tier miss walk; null is the paper's two-level world.
  // `tier_nodes` is this neighborhood's node path, one node id per level.
  IndexServer(NeighborhoodId id, std::uint32_t peer_count,
              const SystemConfig& config,
              std::unique_ptr<cache::EvictionScorer> scorer,
              std::unique_ptr<cache::AdmissionPolicy> admission,
              MediaServer& media_server, sim::SimTime horizon,
              const TierSystem* tiers = nullptr,
              std::vector<std::uint32_t> tier_nodes = {});

  // The cell keeps the server's coax meter address: neither copyable nor
  // movable.
  IndexServer(const IndexServer&) = delete;
  IndexServer& operator=(const IndexServer&) = delete;

  // The cell's session admit decision (cache::CacheCell::start_session).
  [[nodiscard]] bool start_session(ProgramId program, DataSize program_size,
                                   sim::SimTime t);

  // Serve one segment transmission for a viewer in this neighborhood: the
  // cell classifies it (and fills off a miss broadcast); the server meters
  // the coax, and a peer hit on the peer meter, a miss on the serving tier
  // or the media server.  `full_slice` says the transmission covers the
  // segment's entire nominal duration (only fully-broadcast segments can
  // be cached off the wire).
  ServeResult serve_segment(PeerId viewer, cache::SegmentKey key,
                            sim::Interval interval, bool admit,
                            bool full_slice);

  // Viewer playback always occupies a receive slot on the viewer's box for
  // the whole session (counts against its limit when asked to serve).
  void occupy_viewer_slot(PeerId viewer, sim::Interval interval);

  // Failure injection: the peer's disk contents are lost (box swap/crash);
  // see cache::CacheCell::fail_peer.  Counts the failure and the bytes.
  void fail_peer(PeerId peer);

  // Live policy switching swaps this cell with a shadow cell whole
  // (cache::PolicySwitcher); counters and meters stay put, so the report
  // remains one continuous per-neighborhood history.
  [[nodiscard]] cache::CacheCell& cell() { return cell_; }

  [[nodiscard]] NeighborhoodId id() const { return id_; }
  [[nodiscard]] std::uint32_t peer_count() const { return cell_.peer_count(); }
  [[nodiscard]] const cache::SegmentStore& store() const {
    return cell_.store();
  }
  [[nodiscard]] const cache::EvictionScorer& scorer() const {
    return *cell_.scorer();
  }
  // Null means no policy gates admission (always-admit, the paper path).
  [[nodiscard]] const cache::AdmissionPolicy* admission() const {
    return cell_.admission();
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

  // The cell's ledger plus the primary-only counters.
  struct Counters : cache::CellCounters {
    std::uint64_t peer_failures = 0;
    double wiped_bytes = 0.0;
    // Per tier level (SystemConfig::tiers order): neighborhood misses the
    // level's node absorbed.  Empty in the two-level world.
    std::vector<std::uint64_t> tier_hits;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  NeighborhoodId id_;
  DataRate stream_rate_;
  MediaServer& media_server_;
  sim::RateMeter coax_meter_;
  sim::RateMeter peer_meter_;
  // Reads coax_meter_, so it is declared after it.
  cache::CacheCell cell_;
  const TierSystem* tiers_;
  std::vector<std::uint32_t> tier_nodes_;
  std::vector<sim::RateMeter> tier_meters_;
  Counters counters_;
};

}  // namespace vodcache::core
