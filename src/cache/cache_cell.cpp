#include "cache/cache_cell.hpp"

#include <utility>

#include "util/assert.hpp"

namespace vodcache::cache {

CellCounters& CellCounters::operator+=(const CellCounters& other) {
  sessions += other.sessions;
  segments += other.segments;
  hits += other.hits;
  cold_misses += other.cold_misses;
  busy_misses += other.busy_misses;
  evictions += other.evictions;
  fills += other.fills;
  admission_denials += other.admission_denials;
  hit_bits += other.hit_bits;
  miss_bits += other.miss_bits;
  return *this;
}

CellCounters& CellCounters::operator-=(const CellCounters& other) {
  sessions -= other.sessions;
  segments -= other.segments;
  hits -= other.hits;
  cold_misses -= other.cold_misses;
  busy_misses -= other.busy_misses;
  evictions -= other.evictions;
  fills -= other.fills;
  admission_denials -= other.admission_denials;
  hit_bits -= other.hit_bits;
  miss_bits -= other.miss_bits;
  return *this;
}

// admission_ == nullptr is the always-admit fast path: no virtual call, no
// rate-meter query — byte-for-byte the pre-policy-engine request flow.
CacheCell::CacheCell(Policy policy, const Settings& settings,
                     std::uint32_t peer_count, const sim::RateMeter* coax,
                     const trace::Catalog& catalog)
    : scorer_display_(policy.scorer_display),
      admission_display_(policy.admission_display),
      scorer_(std::move(policy.scorer)),
      admission_(std::move(policy.admission)),
      settings_(settings),
      coax_(coax),
      catalog_(&catalog),
      store_(peer_count, settings.per_peer_storage, catalog,
             settings.stream_rate),
      slots_(peer_count, hfc::kPeerStreamLimit) {
  VODCACHE_EXPECTS(scorer_ != nullptr);
  VODCACHE_EXPECTS(coax != nullptr);
  VODCACHE_EXPECTS(peer_count > 0);
  VODCACHE_EXPECTS(settings.per_peer_storage >= DataSize{});
}

bool CacheCell::admission_allows(ProgramId program, sim::SimTime t) {
  if (admission_ == nullptr) return true;
  if (admission_->admit({program, t, coax_->rate_at(t)})) return true;
  ++counters_.admission_denials;
  return false;
}

template <class Full>
bool CacheCell::make_room(ProgramId incoming, sim::SimTime t, Full full) {
  while (full()) {
    const auto victim = scorer_->victim(t);
    if (!victim) return false;  // nothing cached, yet no room
    if (*victim == incoming) return false;  // would evict ourselves
    if (scorer_->score(incoming, t) <= scorer_->score(*victim, t)) {
      return false;  // incoming does not outrank the cheapest cached program
    }
    store_.evict_program(*victim);
    scorer_->on_evict(*victim);
    if (settings_.whole_program) committed_ -= program_size(*victim);
    ++counters_.evictions;
  }
  return true;
}

bool CacheCell::start_session(ProgramId program, sim::SimTime t) {
  scorer_->on_access(program, t);
  // Already admitted: keep filling it.
  if (scorer_->is_cached(program)) return true;
  if (!admission_allows(program, t)) return false;

  if (settings_.whole_program) {
    // Charge the whole program against capacity now, evicting victims the
    // scorer ranks below it ("it locates a collection of peers to store
    // the segments ... instruct peers to delete programs").
    const DataSize size = program_size(program);
    const auto over_capacity = [&] {
      return committed_ + size > store_.capacity();
    };
    if (!make_room(program, t, over_capacity)) return false;
    committed_ += size;
    scorer_->on_admit(program, t);
    return true;
  }

  // Segment-granularity ablation: the first stored segment admits.
  // Free space: caching one more program costs nothing.
  if (store_.free_space() > DataSize{}) return true;
  // Full: admit only if the program outranks the current victim.
  const auto victim = scorer_->victim(t);
  if (!victim) return false;
  return scorer_->score(program, t) > scorer_->score(*victim, t);
}

void CacheCell::occupy_viewer_slot(PeerId viewer, sim::Interval interval) {
  slots_.acquire_unchecked(viewer.value(), interval);
}

void CacheCell::try_fill(SegmentKey key, sim::SimTime t) {
  const bool cached = scorer_->is_cached(key.program);
  // Whole-program: the session's admit decision went stale, the program
  // was evicted mid-session.
  if (settings_.whole_program && !cached) return;
  // Each try is the placement itself (per-peer, so aggregate free space
  // is not enough): make_room evicts until one stores the segment.  It
  // never evicts key.program itself.
  const auto unplaced = [&] { return !store_.store(key).has_value(); };
  if (!make_room(key.program, t, unplaced)) return;
  // Segment granularity: the program's first stored segment admits it.
  if (!cached) scorer_->on_admit(key.program, t);
  ++counters_.fills;
}

ServeResult CacheCell::serve_segment(SegmentKey key, sim::Interval interval,
                                     bool admit, bool full_slice) {
  const double bits =
      settings_.stream_rate.bps() * interval.duration_seconds();

  // Span into the replica arena — read fully before try_fill() below can
  // mutate the store.
  const auto replicas = store_.locate(key);
  for (const PeerId replica : replicas) {
    if (slots_.try_acquire(replica.value(), interval)) {
      ++counters_.hits;
      counters_.hit_bits += bits;
      if (admission_ != nullptr) admission_->on_serve(true, interval.begin);
      return ServeResult::PeerHit;
    }
  }

  const bool was_cached = !replicas.empty();
  if (was_cached) ++counters_.busy_misses;
  counters_.miss_bits += bits;
  if (admission_ != nullptr) admission_->on_serve(false, interval.begin);

  // Opportunistic fill off the broadcast: only whole segments, and only if
  // the program was admitted for this session.  On a busy miss a fill adds
  // a *replica* — every existing copy's peer was stream-saturated — which
  // is only done when the replication extension is on.
  if (admit && full_slice && (!was_cached || settings_.replicate_on_busy)) {
    try_fill(key, interval.begin);
  }
  return was_cached ? ServeResult::MissBusy : ServeResult::MissCold;
}

SegmentStore::WipeResult CacheCell::fail_peer(PeerId peer) {
  VODCACHE_EXPECTS(peer.value() < slots_.peer_count());
  auto wiped = store_.wipe_peer(peer);
  if (!settings_.whole_program) {
    for (const ProgramId program : wiped.emptied_programs) {
      VODCACHE_ASSERT(scorer_->is_cached(program));
      scorer_->on_evict(program);
    }
  }
  return wiped;
}

}  // namespace vodcache::cache
