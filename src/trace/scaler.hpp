// Trace scaling transforms, exactly as described in section V-A of the
// paper (used by its figure 15 / table 16 scalability experiments):
//
//  * Population x n: create n copies of every user; every event is executed
//    once per copy, against the same program, with the copies' start times
//    jittered by a uniform 1-60 seconds to avoid synchronized accesses.
//  * Catalog x n: create n copies of every program; every event is remapped
//    to one of the n copies uniformly at random.
//
// Both transforms are streaming adaptors (`PopulationScaledSource`,
// `CatalogScaledSource`): O(1)-memory `SessionSource` wrappers, the way
// figure-15 sweeps scale without materializing n copies of the workload.
// Catalog scaling only rewrites records, so it is a `RemapSource`;
// population scaling shifts start times and re-sorts through a reorder
// buffer, so it has a stream of its own.
// `trace::materialize(adaptor)` is the materialized form (the tests'
// cross-validation twin).
#pragma once

#include <cstdint>
#include <memory>

#include "trace/session_source.hpp"
#include "trace/trace.hpp"

namespace vodcache::trace {

// Population x factor as a stream adaptor.  Copy k of user u has id
// u + k*user_count.  Copy 0 keeps the original timestamps; copies k>0 are
// shifted by uniform [1, 60] whole seconds, clamped inside the horizon
// (a jittered copy near the end of the trace is pinned to horizon - 1 ms —
// it may land at the same timestamp as other clamped copies, never past the
// horizon, and never ahead of its original's position in the sorted order).
//
// The jitter RNG is drawn in input order (record-major, copies in k order),
// matching the materialized transform draw for draw; emission re-sorts the
// jittered copies through a bounded reorder buffer (at most the jitter
// window — 60 s — of upstream sessions is in flight), with ties broken by
// generation order so the output equals the materialized trace's stable
// sort byte for byte.
//
// The input source must outlive the adaptor and its streams.
class PopulationScaledSource final : public SessionSource {
 public:
  PopulationScaledSource(const SessionSource& input, std::uint32_t factor,
                         std::uint64_t seed = 0x5ca1ab1e);

  [[nodiscard]] const Catalog& catalog() const override {
    return input_->catalog();
  }
  [[nodiscard]] std::uint32_t user_count() const override;
  [[nodiscard]] sim::SimTime horizon() const override {
    return input_->horizon();
  }
  [[nodiscard]] std::unique_ptr<SessionStream> open() const override;
  [[nodiscard]] std::uint64_t session_count_hint() const override {
    return input_->session_count_hint() * factor_;
  }

 private:
  const SessionSource* input_;
  std::uint32_t factor_;
  std::uint64_t seed_;
};

// Catalog x factor as a stream adaptor.  The expanded catalog (copy k of
// program p has id p + k*program_count, same length/introduction/weights)
// is built eagerly — it is O(programs) — and every streamed event is
// remapped to a uniformly-random copy, drawing the RNG in input order
// exactly like the materialized transform.  Start times are untouched, so
// it is a plain RemapSource.  factor == 1 streams the input itself and
// draws nothing.
//
// The input source must outlive the adaptor and its streams.
class CatalogScaledSource final : public RemapSource {
 public:
  CatalogScaledSource(const SessionSource& input, std::uint32_t factor,
                      std::uint64_t seed = 0xcab1e5);

  [[nodiscard]] const Catalog& catalog() const override { return catalog_; }
  [[nodiscard]] std::unique_ptr<SessionStream> open() const override;

 private:
  void remap(SessionRecord& record, Rng& rng) const override;

  std::uint32_t factor_;
  std::uint32_t base_programs_;
  Catalog catalog_;
};

}  // namespace vodcache::trace
