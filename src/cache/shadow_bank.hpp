// ShadowBank: one neighborhood's shadow caches — one cache::CacheCell per
// registered (eviction scorer x admission policy) pair, replayed against
// the same session stream as the primary, in the same single pass.
//
// A shadow is a bare cell: the primary (core::IndexServer) runs the same
// CacheCell code and adds only the side effects a shadow must not have —
// meter adds, tier walks, media-server serves.  None of those changes a
// hit/miss classification or a fill decision, so each cell's ledger equals
// a standalone run of its pair (pinned per replay mode in
// tests/shadow_bank_test.cpp).  The shard calls each bank method right
// after the primary's counterpart, so every cell sees the standalone event
// order; and because a cell never touches the primary's state, the
// primary's report stays byte-identical with shadows on.
//
// The one read a cell performs outside itself is the neighborhood's coax
// meter, for the headroom-gated admissions — sound because coax metering
// is policy-independent (see cache/cache_cell.hpp).
//
// Zero steady-state allocations: stores are FlatMap64/PooledArena, stream
// slots are high-water vectors, admission histories are flat tables or
// fixed sketch arrays (enforced by tests/allocation_audit_test.cpp with
// shadows on).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache_cell.hpp"
#include "sim/rate_meter.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace vodcache::cache {

class ShadowBank {
 public:
  // Admit bitmasks cap the matrix at 64 pairs per bank.
  static constexpr std::size_t kMaxPairs = 64;

  // Every pair's scorer must be non-null (a no-cache shadow would count
  // nothing).  `coax` (the owning neighborhood's coax meter, fed by the
  // primary) must outlive the bank.
  ShadowBank(std::vector<CacheCell::Policy> pairs,
             const CacheCell::Settings& settings, std::uint32_t peer_count,
             const sim::RateMeter* coax);

  ShadowBank(const ShadowBank&) = delete;
  ShadowBank& operator=(const ShadowBank&) = delete;

  [[nodiscard]] std::size_t pair_count() const { return cells_.size(); }
  [[nodiscard]] const char* scorer_name(std::size_t pair) const {
    return cells_[pair].scorer_name();
  }
  [[nodiscard]] const char* admission_name(std::size_t pair) const {
    return cells_[pair].admission_name();
  }
  [[nodiscard]] const CellCounters& counters(std::size_t pair) const {
    return ledgers_[pair];
  }
  // Live policy switching swaps a cell with the primary's whole; the
  // ledgers stay put, so each side's history keeps accumulating.
  [[nodiscard]] CacheCell& cell(std::size_t pair) { return cells_[pair]; }

  // Bit p of the result is pair p's whole-session admit decision.
  [[nodiscard]] std::uint64_t start_session(ProgramId program,
                                            DataSize program_size,
                                            sim::SimTime t);

  void occupy_viewer_slot(PeerId viewer, sim::Interval interval);

  // Bit p of `admit_mask` is pair p's decision from start_session.
  void serve_segment(SegmentKey key, sim::Interval interval,
                     std::uint64_t admit_mask, bool full_slice);

  void fail_peer(PeerId peer);

 private:
  std::vector<CacheCell> cells_;
  std::vector<CellCounters> ledgers_;
};

}  // namespace vodcache::cache
