// FutureIndex: per-program sorted access times, supporting "how many
// accesses will `program` receive in (t, t + horizon]" in O(log m).
//
// This is the clairvoyance backing the paper's Oracle strategy, "impossible
// to implement ... presented as an example of ideal cache performance".
// The VoD system builds one per neighborhood from that neighborhood's slice
// of the trace: add() appends to one flat log, and freeze() groups it by
// program (util/group_by_key.hpp) into one time array and one offsets table.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/ids.hpp"

namespace vodcache::cache {

class FutureIndex {
 public:
  // Allocates nothing until the first add() or freeze().
  FutureIndex() = default;
  explicit FutureIndex(std::size_t program_count)
      : program_count_(program_count) {}

  // Accesses may be appended in any order; call freeze() exactly once
  // before querying.
  void add(ProgramId program, sim::SimTime t);
  void freeze();

  // Accesses strictly after `t`, up to and including `t + horizon`.
  [[nodiscard]] std::int64_t count_in(ProgramId program, sim::SimTime t,
                                      sim::SimTime horizon) const;

 private:
  std::size_t program_count_ = 0;
  // Before freeze(), times_[i] is an access of programs_[i]; after, program
  // p's accesses, ascending, are times_[offsets_[p], offsets_[p + 1]).
  std::vector<sim::SimTime> times_;
  std::vector<std::uint32_t> programs_;
  std::vector<std::uint32_t> offsets_;
  bool frozen_ = false;
};

}  // namespace vodcache::cache
