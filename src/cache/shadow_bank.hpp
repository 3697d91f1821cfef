// ShadowBank: one neighborhood's cache cells — every cache::CacheCell the
// neighborhood replays, in one vector, against one session stream, in one
// pass.
//
// The bank holds the configured pair alone, or — in shadow-matrix and
// policy-switch runs — one cell per registered (eviction scorer x
// admission policy) pair, scorer-major in registry order: the matrix's
// rows.  core::IndexServer serves from one cell, the primary, which is its
// own pair's row (a no-cache primary rides one extra cell after the rows);
// every other cell is a shadow.  The server adds only the side effects a
// shadow must not have — meter adds, tier walks, media-server serves.
// None of those changes a hit/miss classification or a fill decision, and
// cells never move, so each cell's counters equal a standalone run of its
// pair (pinned per replay mode in tests/shadow_bank_test.cpp) and the
// primary's report stays byte-identical with shadows on.  A policy switch
// changes which cell is the primary and moves no state.
//
// A cell reads two things outside itself: the shard's AccessHistory, a
// pure function of the session stream, and the neighborhood's coax meter,
// for the headroom-gated admissions — sound because coax metering is
// policy-independent (see cache/cache_cell.hpp).
//
// Zero steady-state allocations: stores are FlatMap64/PooledArena, stream
// slots are one fixed table per cell, the shared history is flat tables
// and a fixed sketch (enforced by tests/allocation_audit_test.cpp with
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
  // Admit bitmasks cap the bank at 64 cells.
  static constexpr std::size_t kMaxCells = 64;

  // A neighborhood's cells before construction, in bank order: the first
  // `rows` are the shadow matrix's rows (0 when the matrix is off), and
  // `primary` indexes the cell the index server serves from.
  struct Plan {
    std::vector<CacheCell::Policy> cells;
    std::size_t rows = 0;
    std::size_t primary = 0;
  };

  // `coax` (the owning neighborhood's coax meter, fed by the index server)
  // must outlive the bank.
  ShadowBank(std::vector<CacheCell::Policy> cells, std::size_t rows,
             const CacheCell::Settings& settings, std::uint32_t peer_count,
             const sim::RateMeter* coax);

  ShadowBank(const ShadowBank&) = delete;
  ShadowBank& operator=(const ShadowBank&) = delete;

  // The shadow matrix's rows: the leading cells, one per registered pair.
  [[nodiscard]] std::size_t pair_count() const { return rows_; }
  [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }
  [[nodiscard]] const CacheCell& cell(std::size_t c) const {
    return cells_[c];
  }
  [[nodiscard]] const CellCounters& counters(std::size_t c) const {
    return cells_[c].counters();
  }

  // Bit c of the result is cell c's whole-session admit decision.
  [[nodiscard]] std::uint64_t start_session(ProgramId program,
                                            DataSize program_size,
                                            sim::SimTime t);

  void occupy_viewer_slot(PeerId viewer, sim::Interval interval);

  // Bit c of `admit_mask` is cell c's decision from start_session.
  // Returns cell `report`'s classification.
  ServeResult serve_segment(SegmentKey key, sim::Interval interval,
                            std::uint64_t admit_mask, bool full_slice,
                            std::size_t report);

  // Returns the bytes cell `report` lost.
  DataSize fail_peer(PeerId peer, std::size_t report);

 private:
  std::vector<CacheCell> cells_;
  std::size_t rows_;
};

}  // namespace vodcache::cache
