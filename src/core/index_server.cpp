#include "core/index_server.hpp"

#include <utility>

#include "core/tier_system.hpp"
#include "util/assert.hpp"

namespace vodcache::core {

namespace {

// The cell settings a SystemConfig implies.
cache::CacheCell::Settings cell_settings(const SystemConfig& config) {
  cache::CacheCell::Settings settings;
  settings.whole_program = config.admission == CacheAdmission::WholeProgram;
  settings.replicate_on_busy = config.replicate_on_busy;
  settings.peer_stream_limit = config.peer_stream_limit;
  settings.stream_rate = config.stream_rate;
  settings.per_peer_storage = config.per_peer_storage;
  return settings;
}

}  // namespace

IndexServer::IndexServer(NeighborhoodId id, std::uint32_t peer_count,
                         const SystemConfig& config,
                         cache::ShadowBank::Plan plan,
                         MediaServer& media_server, sim::SimTime horizon,
                         const TierSystem* tiers,
                         std::vector<std::uint32_t> tier_nodes)
    : id_(id),
      stream_rate_(config.stream_rate),
      media_server_(media_server),
      coax_meter_(horizon, config.meter_bucket),
      peer_meter_(horizon, config.meter_bucket),
      cells_(std::move(plan.cells), plan.rows, cell_settings(config),
             peer_count, &coax_meter_),
      primary_(plan.primary),
      tiers_(tiers),
      tier_nodes_(std::move(tier_nodes)) {
  VODCACHE_EXPECTS(primary_ < cells_.cell_count());
  if (tiers_ != nullptr) {
    VODCACHE_EXPECTS(tier_nodes_.size() == tiers_->level_count());
    counters_.tier_hits.assign(tiers_->level_count(), 0);
    tier_meters_.reserve(tiers_->level_count());
    for (std::size_t l = 0; l < tiers_->level_count(); ++l) {
      tier_meters_.emplace_back(horizon, config.meter_bucket);
    }
  }
}

std::uint64_t IndexServer::start_session(ProgramId program,
                                         DataSize program_size,
                                         sim::SimTime t) {
  return cells_.start_session(program, program_size, t);
}

void IndexServer::occupy_viewer_slot(PeerId viewer, sim::Interval interval) {
  VODCACHE_EXPECTS(viewer.value() < peer_count());
  cells_.occupy_viewer_slot(viewer, interval);
}

void IndexServer::fail_peer(PeerId peer) {
  const DataSize wiped = cells_.fail_peer(peer, primary_);
  ++counters_.peer_failures;
  counters_.wiped_bytes += wiped.byte_count();
}

void IndexServer::promote(std::size_t cell) {
  VODCACHE_EXPECTS(cell < cells_.cell_count());
  counters_ += cells_.counters(primary_);
  counters_ -= cells_.counters(cell);
  primary_ = cell;
}

IndexServer::Counters IndexServer::counters() const {
  Counters counters = counters_;
  counters += cells_.counters(primary_);
  return counters;
}

ServeResult IndexServer::serve_segment(PeerId viewer, cache::SegmentKey key,
                                       sim::Interval interval,
                                       std::uint64_t admit_mask,
                                       bool full_slice) {
  VODCACHE_EXPECTS(viewer.value() < peer_count());
  VODCACHE_EXPECTS(interval.valid());

  // Broadcast coax carries the segment exactly once regardless of source
  // (paper section VI-B: "each file must consume the same bandwidth whether
  // it is sent from a peer or the index server").
  coax_meter_.add(interval, stream_rate_);

  const ServeResult result =
      cells_.serve_segment(key, interval, admit_mask, full_slice, primary_);
  if (result == ServeResult::PeerHit) {
    peer_meter_.add(interval, stream_rate_);
    return result;
  }

  // Multi-tier walk: the lowest tier node holding the program absorbs the
  // miss; only a full walk-through reaches the origin.  tiers_ == nullptr
  // (the two-level world) is structurally the pre-tier path — no lookup,
  // the origin serves every miss.  The walk reads only the prebuilt
  // prefetch plan, so it may follow the cells' fills.
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
