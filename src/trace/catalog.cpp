#include "trace/catalog.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vodcache::trace {

Catalog::Catalog(std::vector<ProgramInfo> programs)
    : programs_(std::move(programs)) {
  for (const auto& p : programs_) {
    VODCACHE_EXPECTS(p.length > sim::SimTime{});
    VODCACHE_EXPECTS(p.base_weight >= 0.0);
  }
}

const ProgramInfo& Catalog::info(ProgramId id) const {
  VODCACHE_EXPECTS(id.value() < programs_.size());
  return programs_[id.value()];
}

sim::SimTime Catalog::length(ProgramId id) const { return info(id).length; }

sim::SimTime Catalog::introduced(ProgramId id) const {
  return info(id).introduced;
}

DataSize Catalog::program_size(ProgramId id, DataRate stream_rate) const {
  return stream_rate.over_seconds(length(id).seconds_f());
}

DataSize Catalog::segment_size(ProgramId id, std::uint32_t index,
                               DataRate stream_rate) const {
  const sim::SimTime rest =
      length(id) - sim::SimTime::millis(kSegmentDuration.millis_count() * index);
  VODCACHE_EXPECTS(rest > sim::SimTime{});
  return stream_rate.over_seconds(std::min(kSegmentDuration, rest).seconds_f());
}

DataSize Catalog::total_size(DataRate stream_rate) const {
  DataSize total;
  for (std::size_t i = 0; i < programs_.size(); ++i) {
    total += program_size(ProgramId{static_cast<std::uint32_t>(i)}, stream_rate);
  }
  return total;
}

}  // namespace vodcache::trace
