#include "cache/shadow_bank.hpp"

#include <utility>

#include "util/assert.hpp"

namespace vodcache::cache {

ShadowBank::ShadowBank(std::vector<CacheCell::Policy> cells, std::size_t rows,
                       const CacheCell::Settings& settings,
                       std::uint32_t peer_count, const sim::RateMeter* coax)
    : rows_(rows) {
  VODCACHE_EXPECTS(!cells.empty() && cells.size() <= kMaxCells);
  VODCACHE_EXPECTS(rows <= cells.size());
  cells_.reserve(cells.size());
  for (auto& cell : cells) {
    cells_.emplace_back(std::move(cell), settings, peer_count, coax);
  }
}

std::uint64_t ShadowBank::start_session(ProgramId program,
                                        DataSize program_size, sim::SimTime t) {
  std::uint64_t mask = 0;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (cells_[c].start_session(program, program_size, t)) {
      mask |= std::uint64_t{1} << c;
    }
  }
  return mask;
}

void ShadowBank::occupy_viewer_slot(PeerId viewer, sim::Interval interval) {
  for (auto& cell : cells_) cell.occupy_viewer_slot(viewer, interval);
}

ServeResult ShadowBank::serve_segment(SegmentKey key, sim::Interval interval,
                                      std::uint64_t admit_mask,
                                      bool full_slice, std::size_t report) {
  ServeResult result = ServeResult::MissCold;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const bool admit = (admit_mask >> c) & 1;
    const ServeResult r =
        cells_[c].serve_segment(key, interval, admit, full_slice);
    if (c == report) result = r;
  }
  return result;
}

DataSize ShadowBank::fail_peer(PeerId peer, std::size_t report) {
  DataSize freed;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const DataSize wiped = cells_[c].fail_peer(peer).freed;
    if (c == report) freed = wiped;
  }
  return freed;
}

}  // namespace vodcache::cache
