// The session trace: the ground-truth workload the simulator replays.
//
// Layout mirrors the PowerInfo trace the paper uses: each record is
// (start time, user, program, session duration).  Traces are kept sorted by
// start time; the simulator and the scaling transforms rely on it.  What
// makes one session valid is stated once, in session_error().
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "trace/catalog.hpp"
#include "util/ids.hpp"

namespace vodcache::trace {

struct SessionRecord {
  sim::SimTime start;
  UserId user;
  ProgramId program;
  // How long the user actually watched (<= program length).
  sim::SimTime duration;
};

// The rules every session obeys, wherever it comes from: user and program
// ids in range, a positive duration no longer than the program, a start
// inside [0, horizon) and not before the program's introduction.  Returns
// the first rule `record` breaks, or nullptr.  Trace::validation_error and
// the streaming CSV loader both apply it.
[[nodiscard]] const char* session_error(
    const SessionRecord& record, const std::vector<ProgramInfo>& programs,
    std::uint32_t user_count, sim::SimTime horizon);

class Trace {
 public:
  Trace() = default;
  Trace(Catalog catalog, std::vector<SessionRecord> sessions,
        std::uint32_t user_count, sim::SimTime horizon);

  [[nodiscard]] const Catalog& catalog() const { return catalog_; }
  [[nodiscard]] const std::vector<SessionRecord>& sessions() const {
    return sessions_;
  }
  [[nodiscard]] std::uint32_t user_count() const { return user_count_; }
  [[nodiscard]] sim::SimTime horizon() const { return horizon_; }
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }

  [[nodiscard]] bool is_sorted() const;

  // First internal-consistency violation, if any: sorting, then the first
  // session that breaks a session_error rule.  Loaders turn this into
  // exceptions.
  [[nodiscard]] std::optional<std::string> validation_error() const;

  // Aborts via contract check on violation (used by generators and tests,
  // where invalid data is a programming error, not an input error).
  void validate() const;

 private:
  Catalog catalog_;
  std::vector<SessionRecord> sessions_;
  std::uint32_t user_count_ = 0;
  sim::SimTime horizon_;
};

}  // namespace vodcache::trace
