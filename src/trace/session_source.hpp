// SessionSource: the workload as a pull-based stream instead of a dataset.
//
// The materialized `Trace` holds every session of the whole horizon in one
// vector, which caps the reachable scale at RAM long before CPU: a
// million-user multi-week workload is tens of gigabytes of `SessionRecord`s
// that the simulator only ever reads once, in timestamp order.  A
// `SessionSource` describes the same workload lazily:
//
//   * the immutable facts — catalog, user count, horizon — are available up
//     front and are O(catalog);
//   * the session sequence is produced on demand through a single-pass
//     `SessionStream` cursor, in the exact order (including ties) that the
//     materialized `Trace` would hold after its stable sort.
//
// That last clause is the contract that makes streaming invisible to
// results: for any source, draining `open()` must yield byte-for-byte the
// `sessions()` vector of the equivalent materialized trace.  Every source
// (generator, CSV file, scaling adaptors) is cross-validated against its
// materialized twin in tests/session_source_test.cpp, and the simulation
// report is pinned byte-identical between the two paths.
//
// Most workload adaptors rewrite the input one record at a time and leave
// start times alone (catalog scaling, and the scenario engine's flash
// crowd, release waves and neighborhood skew).  They all derive from
// `RemapSource`, which owns the one stream that pulls a record, hands it to
// the adaptor's `remap`, and passes it on.
//
// Sources are immutable once constructed; `open()` may be called any number
// of times and each stream replays the identical sequence (the simulation
// uses this for its prepass: the oracle's future index and tier prefetch
// plans are built from a second stream over the same source).  A stream
// may refer to its source, so a source must outlive the streams it opens.
#pragma once

#include <cstdint>
#include <memory>

#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace vodcache::trace {

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

  SessionSource() = default;
  SessionSource(const SessionSource&) = delete;
  SessionSource& operator=(const SessionSource&) = delete;

  [[nodiscard]] virtual const Catalog& catalog() const = 0;
  [[nodiscard]] virtual std::uint32_t user_count() const = 0;
  [[nodiscard]] virtual sim::SimTime horizon() const = 0;

  // A fresh stream positioned at the first session.
  [[nodiscard]] virtual std::unique_ptr<SessionStream> open() const = 0;

  // Expected number of sessions (0 when unknown).  A sizing hint for
  // consumers that buffer — never a contract on the stream's length.
  [[nodiscard]] virtual std::uint64_t session_count_hint() const { return 0; }
};

// Adapts an in-memory trace (the materialized path, and the bridge that
// lets `ShardedSimulation` run every workload through one streaming code
// path).  The trace must outlive the source and its streams.
class TraceSource final : public SessionSource {
 public:
  explicit TraceSource(const Trace& trace) : trace_(&trace) {}

  [[nodiscard]] const Catalog& catalog() const override {
    return trace_->catalog();
  }
  [[nodiscard]] std::uint32_t user_count() const override {
    return trace_->user_count();
  }
  [[nodiscard]] sim::SimTime horizon() const override {
    return trace_->horizon();
  }
  [[nodiscard]] std::unique_ptr<SessionStream> open() const override;
  [[nodiscard]] std::uint64_t session_count_hint() const override {
    return trace_->session_count();
  }

 private:
  const Trace* trace_;
};

// An adaptor that rewrites each record of one input in place, in input
// order, and forwards the input's catalog, user count, horizon and
// session-count hint (a subclass that reshapes the catalog overrides
// `catalog()`).  Every stream owns one Rng seeded with the subclass's
// `seed` and hands it to `remap` for each record, so the draws are a
// deterministic function of the input stream and every open() replays the
// identical sequence.  Start times must stay untouched: the output then
// keeps the input's sorted order with no reorder buffer.  `remap` keeps no
// state outside the record and the RNG, so two streams of one source may
// run at the same time.
//
// The input source must outlive the adaptor and its streams.
class RemapSource : public SessionSource {
 public:
  [[nodiscard]] const Catalog& catalog() const override {
    return input_->catalog();
  }
  [[nodiscard]] std::uint32_t user_count() const override {
    return input_->user_count();
  }
  [[nodiscard]] sim::SimTime horizon() const override {
    return input_->horizon();
  }
  [[nodiscard]] std::unique_ptr<SessionStream> open() const override;
  [[nodiscard]] std::uint64_t session_count_hint() const override {
    return input_->session_count_hint();
  }

 protected:
  RemapSource(const SessionSource& input, std::uint64_t seed)
      : input_(&input), seed_(seed) {}

  [[nodiscard]] const SessionSource& input() const { return *input_; }

  // Rewrites one record of the input; draws only from `rng`.
  virtual void remap(SessionRecord& record, Rng& rng) const = 0;

 private:
  class Stream;

  const SessionSource* input_;
  std::uint64_t seed_;
};

// Drains the source into a materialized, validated Trace.  The memory-bound
// path — used where random access or re-sorting genuinely is needed, and by
// the cross-validation harness that pins stream == trace.
[[nodiscard]] Trace materialize(const SessionSource& source);

}  // namespace vodcache::trace
