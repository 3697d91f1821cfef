// Length-aware GreedyDual (GreedyDual-Size-Frequency, Cherkasova 1998,
// adapted to whole-program VoD caching).
//
// Every strategy in the paper treats a 30-minute short and a 2-hour movie
// as equally expensive residents; under whole-program admission the movie
// occupies four times the capacity for the same access count.  GreedyDual
// scores retention value per byte:
//
//   H(p) = L + accesses(p) * kCreditScale / length_seconds(p)
//
// where L is the classic GreedyDual inflation value: it rises to the
// evicted victim's H on every capacity eviction, so programs that have not
// been touched since cheaper times age out against freshly-admitted ones.
// Long, rarely-watched programs get the smallest H and leave first.
// Ties resolve by recency, like every other scorer here.  accesses(p) is
// the neighborhood's AccessHistory lifetime count.
//
// Deterministic by construction: integer credits, integer inflation, and
// the inflation update only fires on victim (minimum-H) evictions — disk
// wipes of non-minimal programs (failure injection) must not push L above
// a surviving resident's H, which would break GreedyDual's L <= min H
// invariant.
#pragma once

#include "cache/strategy.hpp"
#include "trace/catalog.hpp"

namespace vodcache::cache {

class GreedyDualScorer final : public EvictionScorer {
 public:
  // Lengths are read from the shared immutable catalog (one per run, not
  // per neighborhood — at a thousand shards an owned copy of the length
  // table would be pure duplication).  The catalog must outlive the
  // scorer, exactly as it already outlives the shard that owns it.
  GreedyDualScorer(AccessHistory& history, const trace::Catalog& catalog);

  void on_access(ProgramId program, sim::SimTime t) override;
  [[nodiscard]] Score score(ProgramId program, sim::SimTime t) override;
  void on_evict(ProgramId program) override;

  // Exposed for tests.
  [[nodiscard]] std::int64_t inflation() const { return inflation_; }

 private:
  // Per-access credit resolution: one access to the longest representable
  // program still outranks zero accesses, and a 2x length difference is a
  // 2x credit difference at every frequency.
  static constexpr std::int64_t kCreditScale = 1'000'000;

  [[nodiscard]] std::int64_t credit(ProgramId program) const;

  const trace::Catalog& catalog_;
  std::int64_t inflation_ = 0;
};

}  // namespace vodcache::cache
