#include "cache/shadow_bank.hpp"

#include <utility>

#include "util/assert.hpp"

namespace vodcache::cache {

ShadowBank::ShadowBank(std::vector<CacheCell::Policy> pairs,
                       const CacheCell::Settings& settings,
                       std::uint32_t peer_count, const sim::RateMeter* coax)
    : ledgers_(pairs.size()) {
  VODCACHE_EXPECTS(!pairs.empty() && pairs.size() <= kMaxPairs);
  cells_.reserve(pairs.size());
  for (auto& pair : pairs) {
    VODCACHE_EXPECTS(pair.scorer != nullptr);
    cells_.emplace_back(std::move(pair), settings, peer_count, coax);
  }
}

std::uint64_t ShadowBank::start_session(ProgramId program,
                                        DataSize program_size, sim::SimTime t) {
  std::uint64_t mask = 0;
  for (std::size_t p = 0; p < cells_.size(); ++p) {
    if (cells_[p].start_session(program, program_size, t, ledgers_[p])) {
      mask |= std::uint64_t{1} << p;
    }
  }
  return mask;
}

void ShadowBank::occupy_viewer_slot(PeerId viewer, sim::Interval interval) {
  for (auto& cell : cells_) cell.occupy_viewer_slot(viewer, interval);
}

void ShadowBank::serve_segment(SegmentKey key, sim::Interval interval,
                               std::uint64_t admit_mask, bool full_slice) {
  for (std::size_t p = 0; p < cells_.size(); ++p) {
    const bool admit = (admit_mask >> p) & 1;
    cells_[p].serve_segment(key, interval, admit, full_slice, ledgers_[p]);
  }
}

void ShadowBank::fail_peer(PeerId peer) {
  for (auto& cell : cells_) cell.fail_peer(peer);
}

}  // namespace vodcache::cache
