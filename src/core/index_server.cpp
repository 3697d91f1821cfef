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
  settings.stream_rate = config.stream_rate;
  settings.per_peer_storage = config.per_peer_storage;
  return settings;
}

}  // namespace

IndexServer::IndexServer(NeighborhoodId id, std::uint32_t peer_count,
                         const SystemConfig& config,
                         const trace::Catalog& catalog, Plan plan,
                         MediaServer& media_server, sim::SimTime horizon,
                         const TierSystem* tiers,
                         std::vector<std::uint32_t> tier_nodes)
    : id_(id),
      peer_count_(peer_count),
      stream_rate_(config.stream_rate),
      media_server_(media_server),
      coax_meter_(horizon, config.meter_bucket),
      peer_meter_(horizon, config.meter_bucket),
      rows_(plan.rows),
      primary_(plan.primary),
      tiers_(tiers),
      tier_nodes_(std::move(tier_nodes)) {
  VODCACHE_EXPECTS(peer_count > 0);
  VODCACHE_EXPECTS(plan.cells.size() <= cache::kMaxCells);
  VODCACHE_EXPECTS(rows_ <= plan.cells.size());
  VODCACHE_EXPECTS(primary_ <= plan.cells.size());
  const cache::CacheCell::Settings settings = cell_settings(config);
  cells_.reserve(plan.cells.size());
  for (auto& policy : plan.cells) {
    cells_.emplace_back(std::move(policy), settings, peer_count,
                        &coax_meter_, catalog);
  }
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
                                         sim::SimTime t) {
  ++counters_.sessions;
  std::uint64_t mask = 0;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (cells_[c].start_session(program, t)) {
      mask |= std::uint64_t{1} << c;
    }
  }
  return mask;
}

void IndexServer::occupy_viewer_slot(PeerId viewer, sim::Interval interval) {
  VODCACHE_EXPECTS(viewer.value() < peer_count());
  for (auto& cell : cells_) cell.occupy_viewer_slot(viewer, interval);
}

void IndexServer::fail_peer(PeerId peer) {
  DataSize wiped;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const DataSize freed = cells_[c].fail_peer(peer).freed;
    if (c == primary_) wiped = freed;
  }
  ++counters_.peer_failures;
  counters_.wiped_bytes += wiped.byte_count();
}

void IndexServer::promote(std::size_t cell) {
  VODCACHE_EXPECTS(primary_ < cells_.size() && cell < cells_.size());
  counters_ += cells_[primary_].counters();
  counters_ -= cells_[cell].counters();
  primary_ = cell;
}

IndexServer::Counters IndexServer::counters() const {
  Counters c = counters_;
  if (primary_ < cells_.size()) c += cells_[primary_].counters();
  c.cold_misses = c.segments - c.hits - c.busy_misses;
  return c;
}

cache::CellCounters IndexServer::counters(std::size_t cell) const {
  cache::CellCounters c = cells_[cell].counters();
  c.sessions = counters_.sessions;
  c.segments = counters_.segments;
  c.cold_misses = c.segments - c.hits - c.busy_misses;
  return c;
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
  ++counters_.segments;

  ServeResult result = ServeResult::MissCold;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const bool admit = (admit_mask >> c) & 1;
    const ServeResult r =
        cells_[c].serve_segment(key, interval, admit, full_slice);
    if (c == primary_) result = r;
  }
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
