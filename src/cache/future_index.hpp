// FutureIndex: per-program sorted access times, supporting "how many
// accesses will `program` receive in (t, t + horizon]" in O(log m).
//
// This is the clairvoyance backing the paper's Oracle strategy, "impossible
// to implement ... presented as an example of ideal cache performance".
// The VoD system builds one per neighborhood from that neighborhood's slice
// of the trace.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/ids.hpp"

namespace vodcache::cache {

class FutureIndex {
 public:
  FutureIndex() = default;
  explicit FutureIndex(std::size_t program_count);

  // Accesses may be appended in any order; call freeze() once before
  // querying.
  void add(ProgramId program, sim::SimTime t);
  void freeze();

  // Accesses strictly after `t`, up to and including `t + horizon`.
  [[nodiscard]] std::int64_t count_in(ProgramId program, sim::SimTime t,
                                      sim::SimTime horizon) const;

 private:
  std::vector<std::vector<sim::SimTime>> times_;
  bool frozen_ = false;
};

}  // namespace vodcache::cache
