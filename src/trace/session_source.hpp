// Workload adaptors over a SessionSource, and the drain back into a Trace.
//
// The source and stream interfaces live in trace/trace.hpp, beside the
// materialized `Trace` that is one of their implementations.  This header
// holds what is built on them.
//
// Most workload adaptors rewrite the input one record at a time and leave
// start times alone (catalog scaling, and the scenario engine's flash
// crowd, release waves and neighborhood skew).  They all derive from
// `RemapSource`, which owns the one stream that pulls a record, hands it to
// the adaptor's `remap`, and passes it on.
#pragma once

#include <cstdint>
#include <memory>

#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace vodcache::trace {

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
