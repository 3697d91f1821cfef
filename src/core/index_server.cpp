#include "core/index_server.hpp"

#include <utility>

#include "core/tier_system.hpp"
#include "util/assert.hpp"

namespace vodcache::core {

cache::CacheCell::Settings cell_settings(const SystemConfig& config) {
  cache::CacheCell::Settings settings;
  settings.whole_program = config.admission == CacheAdmission::WholeProgram;
  settings.replicate_on_busy = config.replicate_on_busy;
  settings.peer_stream_limit = config.peer_stream_limit;
  settings.stream_rate = config.stream_rate;
  settings.per_peer_storage = config.per_peer_storage;
  return settings;
}

IndexServer::IndexServer(NeighborhoodId id, std::uint32_t peer_count,
                         const SystemConfig& config,
                         std::unique_ptr<cache::EvictionScorer> scorer,
                         std::unique_ptr<cache::AdmissionPolicy> admission,
                         MediaServer& media_server, sim::SimTime horizon,
                         const TierSystem* tiers,
                         std::vector<std::uint32_t> tier_nodes)
    : id_(id),
      stream_rate_(config.stream_rate),
      media_server_(media_server),
      coax_meter_(horizon, config.meter_bucket),
      peer_meter_(horizon, config.meter_bucket),
      cell_({"", "", std::move(scorer), std::move(admission)},
            cell_settings(config), peer_count, &coax_meter_),
      tiers_(tiers),
      tier_nodes_(std::move(tier_nodes)) {
  if (tiers_ != nullptr) {
    VODCACHE_EXPECTS(tier_nodes_.size() == tiers_->level_count());
    counters_.tier_hits.assign(tiers_->level_count(), 0);
    tier_meters_.reserve(tiers_->level_count());
    for (std::size_t l = 0; l < tiers_->level_count(); ++l) {
      tier_meters_.emplace_back(horizon, config.meter_bucket);
    }
  }
}

bool IndexServer::start_session(ProgramId program, DataSize program_size,
                                sim::SimTime t) {
  return cell_.start_session(program, program_size, t, counters_);
}

void IndexServer::occupy_viewer_slot(PeerId viewer, sim::Interval interval) {
  VODCACHE_EXPECTS(viewer.value() < peer_count());
  cell_.occupy_viewer_slot(viewer, interval);
}

void IndexServer::fail_peer(PeerId peer) {
  const auto wiped = cell_.fail_peer(peer);
  ++counters_.peer_failures;
  counters_.wiped_bytes += wiped.freed.byte_count();
}

ServeResult IndexServer::serve_segment(PeerId viewer, cache::SegmentKey key,
                                       sim::Interval interval, bool admit,
                                       bool full_slice) {
  VODCACHE_EXPECTS(viewer.value() < peer_count());
  VODCACHE_EXPECTS(interval.valid());

  // Broadcast coax carries the segment exactly once regardless of source
  // (paper section VI-B: "each file must consume the same bandwidth whether
  // it is sent from a peer or the index server").
  coax_meter_.add(interval, stream_rate_);

  const ServeResult result =
      cell_.serve_segment(key, interval, admit, full_slice, counters_);
  if (result == ServeResult::PeerHit) {
    peer_meter_.add(interval, stream_rate_);
    return result;
  }

  // Multi-tier walk: the lowest tier node holding the program absorbs the
  // miss; only a full walk-through reaches the origin.  tiers_ == nullptr
  // (the two-level world) is structurally the pre-tier path — no lookup,
  // the origin serves every miss.  The walk reads only the prebuilt
  // prefetch plan, so it may follow the cell's fill.
  if (tiers_ != nullptr) {
    if (const auto level =
            tiers_->serving_level(tier_nodes_, key.program, interval.begin)) {
      ++counters_.tier_hits[*level];
      tier_meters_[*level].add(interval, stream_rate_);
      return result;
    }
  }
  media_server_.serve(interval, stream_rate_);
  return result;
}

}  // namespace vodcache::core
