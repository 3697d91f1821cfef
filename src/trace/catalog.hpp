// The program catalog: per-program length, introduction date, and (for
// synthetic traces) the generator's ground-truth popularity weight.
//
// The PowerInfo trace did not record program lengths; the paper deduced them
// from ECDF jumps.  Our synthetic catalog knows them exactly, which lets the
// test suite validate the paper's deduction methodology
// (analysis::estimate_program_length) against ground truth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace vodcache::trace {

// "Programs are divided into 5 minute segments" (section IV-B.1).
inline constexpr sim::SimTime kSegmentDuration = sim::SimTime::minutes(5);

struct ProgramInfo {
  // Full playback length.
  sim::SimTime length;
  // When the program became available.  Negative values mean "back catalog",
  // i.e. released before the trace began.
  sim::SimTime introduced;
  // Generator ground truth; 0 for traces of unknown provenance.
  double base_weight = 0.0;
  // Rank-damped release-spike coefficient (generator ground truth; see
  // GeneratorConfig::freshness_damping).  0 disables release dynamics.
  double fresh_weight = 0.0;
};

class Catalog {
 public:
  Catalog() = default;
  explicit Catalog(std::vector<ProgramInfo> programs);

  [[nodiscard]] std::size_t size() const { return programs_.size(); }
  [[nodiscard]] bool empty() const { return programs_.empty(); }

  [[nodiscard]] const ProgramInfo& info(ProgramId id) const;
  [[nodiscard]] sim::SimTime length(ProgramId id) const;
  [[nodiscard]] sim::SimTime introduced(ProgramId id) const;

  // Bytes occupied by the whole program when encoded at `stream_rate`.
  [[nodiscard]] DataSize program_size(ProgramId id, DataRate stream_rate) const;

  // Bytes of segment `index` (which must start inside the program) at
  // `stream_rate`: a full kSegmentDuration, or the shorter remainder for
  // the last one.  The caches derive every stored replica's size from it.
  [[nodiscard]] DataSize segment_size(ProgramId id, std::uint32_t index,
                                      DataRate stream_rate) const;

  // Aggregate catalog footprint at `stream_rate`.
  [[nodiscard]] DataSize total_size(DataRate stream_rate) const;

  [[nodiscard]] const std::vector<ProgramInfo>& programs() const {
    return programs_;
  }

 private:
  std::vector<ProgramInfo> programs_;
};

}  // namespace vodcache::trace
