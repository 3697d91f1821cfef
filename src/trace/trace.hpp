// The session trace: the ground-truth workload the simulator replays, and
// the pull-based stream every consumer reads it through.
//
// Layout mirrors the PowerInfo trace the paper uses: each record is
// (start time, user, program, session duration).  What makes one session
// valid is stated once, in session_error().
//
// A `SessionSource` describes a workload lazily:
//
//   * the immutable facts — catalog, user count, horizon — are available up
//     front and are O(catalog);
//   * the session sequence is produced on demand through a single-pass
//     `SessionStream` cursor, sorted by start time, in the exact order
//     (including ties) that the materialized `Trace` holds after its
//     stable sort.
//
// That last clause is the contract that makes streaming invisible to
// results: for any source, draining `open()` must yield byte-for-byte the
// `sessions()` vector of the equivalent materialized trace.  Every source
// (generator, CSV file, scaling adaptors) is cross-validated against its
// materialized twin in tests/session_source_test.cpp, and the simulation
// report is pinned byte-identical between the two paths.
//
// `Trace` is itself a source: the memory-bound one, which holds every
// session of the horizon in one vector.  A million-user multi-week
// workload is tens of gigabytes of records the simulator reads once, in
// order, so the large runs stream from a generator or file instead (see
// trace/session_source.hpp and trace/csv_io.hpp); a Trace is for workloads
// that need random access or re-sorting.
//
// Sources are immutable once constructed; `open()` may be called any number
// of times and each stream replays the identical sequence (the simulation
// uses this for its prepass: the oracle's future index and tier prefetch
// plans are built from a second stream over the same source).  A stream
// may refer to its source, so a source must outlive the streams it opens,
// and moving a source invalidates its open streams just as destroying it
// does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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

// A single-pass cursor over a session sequence, sorted by start time
// (stable order: the materialized trace's post-sort order).  Streams over
// external inputs (CSV files) may throw std::runtime_error if the input
// turns out malformed mid-pass.
class SessionStream {
 public:
  virtual ~SessionStream() = default;

  SessionStream() = default;
  SessionStream(const SessionStream&) = delete;
  SessionStream& operator=(const SessionStream&) = delete;

  // Writes the next session into `out` and returns true; false at end.
  [[nodiscard]] virtual bool next(SessionRecord& out) = 0;
};

class SessionSource {
 public:
  virtual ~SessionSource() = default;

  [[nodiscard]] virtual const Catalog& catalog() const = 0;
  [[nodiscard]] virtual std::uint32_t user_count() const = 0;
  [[nodiscard]] virtual sim::SimTime horizon() const = 0;

  // A fresh stream positioned at the first session.
  [[nodiscard]] virtual std::unique_ptr<SessionStream> open() const = 0;

  // Expected number of sessions (0 when unknown).  A sizing hint for
  // consumers that buffer — never a contract on the stream's length.
  [[nodiscard]] virtual std::uint64_t session_count_hint() const { return 0; }

 protected:
  // Copyable and movable only as part of a derived source (a Trace keeps
  // its value semantics), so nothing can slice through the base.
  SessionSource() = default;
  SessionSource(const SessionSource&) = default;
  SessionSource(SessionSource&&) = default;
  SessionSource& operator=(const SessionSource&) = default;
  SessionSource& operator=(SessionSource&&) = default;
};

// The materialized workload: every session in one vector, stable-sorted by
// start time at construction and never mutated after.
class Trace final : public SessionSource {
 public:
  Trace() = default;
  Trace(Catalog catalog, std::vector<SessionRecord> sessions,
        std::uint32_t user_count, sim::SimTime horizon);

  [[nodiscard]] const Catalog& catalog() const override { return catalog_; }
  [[nodiscard]] const std::vector<SessionRecord>& sessions() const {
    return sessions_;
  }
  [[nodiscard]] std::uint32_t user_count() const override {
    return user_count_;
  }
  [[nodiscard]] sim::SimTime horizon() const override { return horizon_; }
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }

  // Streams the session vector in order.
  [[nodiscard]] std::unique_ptr<SessionStream> open() const override;
  [[nodiscard]] std::uint64_t session_count_hint() const override {
    return sessions_.size();
  }

  // The first session that breaks a session_error rule, if any.  Loaders
  // turn this into exceptions.
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
