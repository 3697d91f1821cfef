// CacheCell: one neighborhood cache under one (eviction scorer x admission
// policy) pair — every placement decision the paper's index server makes
// (section IV-B, figures 4 and 5), and nothing else.
//
// A cell admits or refuses each accessed program, evicts lower-ranked
// programs to make room, classifies each segment request as a peer hit, a
// busy miss or a cold miss, and fills the cache off the miss broadcast.
// It owns the state those decisions read beyond the neighborhood's access
// history (cache/access_history.hpp): the scorer, the admission policy
// (null means always-admit, the paper's behaviour), the SegmentStore, and
// every peer's stream-slot occupancy (busy misses depend on replica
// placement and slot contention, so membership alone cannot reproduce
// them).  It also owns the counters those decisions bump: a cell never
// moves after construction, so its counters are always a standalone run
// of its pair.  The no-cache baseline decides nothing: it is no cell.
//
// Admission has one owner, the scorer's cached set.  Section IV-B
// separates admitting and deleting whole programs from placing and
// locating segments, and so does the cell: a program is admitted exactly
// while the scorer holds it (on_admit / on_evict), and the SegmentStore
// only says where the segments are.  Whole-program admission charges the
// program's full size — read from the run's catalog — against capacity
// at admission, before any segment is stored; the cell keeps that
// committed total itself.  Under segment granularity a program is
// admitted by its first stored segment and leaves the cached set with
// its last, so there the cached set and the store's programs coincide.
//
// The cell moves no bytes.  A neighborhood's cells live in one vector
// owned by core::IndexServer, which serves from one of them (the primary)
// and adds the side effects that are not decisions — coax/peer/tier
// metering, the tier walk, the media-server serve.  Every cell runs this
// one code path, which is what makes each cell's counters equal a
// standalone run of its pair.
#pragma once

#include <cstdint>
#include <memory>

#include "cache/admission.hpp"
#include "cache/segment_store.hpp"
#include "cache/strategy.hpp"
#include "hfc/settop.hpp"
#include "sim/rate_meter.hpp"
#include "sim/time.hpp"
#include "trace/catalog.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace vodcache::cache {

// Admit bitmasks (bit c is cell c's decision) cap a neighborhood at 64
// cells.
inline constexpr std::size_t kMaxCells = 64;

enum class ServeResult {
  // A peer broadcast the segment from its cache slice.
  PeerHit,
  // Segment not in the neighborhood cache; central server streamed it.
  MissCold,
  // Segment cached, but the storing peer was at its stream limit
  // (section V-C: "the cache will trigger a miss if a segment is requested
  // from a peer that has more than two active streams").
  MissBusy,
};

// The counters of one cell's replay.  A cell bumps only what its pair
// decides; sessions, segments and cold_misses (their difference) are the
// same in every cell, so core::IndexServer fills them in.
struct CellCounters {
  std::uint64_t sessions = 0;
  std::uint64_t segments = 0;
  std::uint64_t hits = 0;
  std::uint64_t cold_misses = 0;
  std::uint64_t busy_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t fills = 0;
  // Sessions whose program the admission policy refused to cache
  // (always 0 under always-admit).
  std::uint64_t admission_denials = 0;
  double hit_bits = 0.0;
  double miss_bits = 0.0;

  // Field-wise sums and differences (matrix merges, the primary's history
  // across promotions).  The counts wrap, so an offset taken by
  // subtraction restores the exact count when added back; the bit totals
  // are exact up to rounding.
  CellCounters& operator+=(const CellCounters& other);
  CellCounters& operator-=(const CellCounters& other);
};

class CacheCell {
 public:
  // The slice of the system configuration a cell reads (this layer cannot
  // see core::SystemConfig).
  struct Settings {
    bool whole_program = true;  // CacheAdmission::WholeProgram vs Segment
    bool replicate_on_busy = false;
    DataRate stream_rate;
    DataSize per_peer_storage;
  };

  // The pair and the registry display names that label it in reports and
  // switch logs.  `scorer` is never null.
  struct Policy {
    const char* scorer_display = "";
    const char* admission_display = "";
    std::unique_ptr<EvictionScorer> scorer;
    std::unique_ptr<AdmissionPolicy> admission;
  };

  // `coax` is the owning neighborhood's coax meter (fed by the primary);
  // headroom-gated admissions read it.  Coax metering is
  // policy-independent — every transmission is metered once whatever
  // policy runs — so every cell of a neighborhood reads the rate a
  // standalone run of its pair would have read.  `catalog` gives each
  // program's length, so its full size and each segment's at the stream
  // rate (the store sizes fills by it).  Both must outlive the cell.
  CacheCell(Policy policy, const Settings& settings, std::uint32_t peer_count,
            const sim::RateMeter* coax, const trace::Catalog& catalog);

  // Session begins, and the access history holds it: decides whether this
  // program should (now) be in the cache.  Whole-program admission
  // charges the program's full size against capacity immediately.  The
  // decision holds for the whole session's opportunistic fills.
  [[nodiscard]] bool start_session(ProgramId program, sim::SimTime t);

  // Viewer playback occupies a slot on the viewer's box for the whole
  // session (it counts against the limit when the box is asked to serve).
  void occupy_viewer_slot(PeerId viewer, sim::Interval interval);

  // One segment transmission: a hit if some replica's peer has a free
  // stream slot; otherwise a miss, filled off the broadcast when `admit`
  // (the session's start_session decision) holds, the transmission covers
  // the whole segment, and — on a busy miss — replication is on.
  ServeResult serve_segment(SegmentKey key, sim::Interval interval,
                            bool admit, bool full_slice);

  // Failure injection: the peer's disk contents are lost.  Whole-program
  // admissions survive (the cell re-fills from future broadcasts with no
  // new admission decision); under segment-granularity admission,
  // programs that lost their last segment leave the scorer's cached set.
  // Returns what was wiped.
  SegmentStore::WipeResult fail_peer(PeerId peer);

  [[nodiscard]] const char* scorer_name() const { return scorer_display_; }
  [[nodiscard]] const char* admission_name() const {
    return admission_display_;
  }
  [[nodiscard]] const CellCounters& counters() const { return counters_; }
  [[nodiscard]] const SegmentStore& store() const { return store_; }
  [[nodiscard]] const EvictionScorer* scorer() const { return scorer_.get(); }

 private:
  // The admission policy's verdict for `program` at `t` (counts a
  // denial).  True when no policy is configured.
  [[nodiscard]] bool admission_allows(ProgramId program, sim::SimTime t);
  [[nodiscard]] DataSize program_size(ProgramId program) const {
    return catalog_->program_size(program, settings_.stream_rate);
  }
  // Evicts the scorer's victims while `full()` holds; `full` may itself
  // do the work it waits on, as try_fill's placement does.  Returns
  // false — leaving the cache short — once nothing is left to evict, the
  // victim is `incoming` itself, or `incoming` stops strictly outranking
  // it.
  template <class Full>
  [[nodiscard]] bool make_room(ProgramId incoming, sim::SimTime t, Full full);
  void try_fill(SegmentKey key, sim::SimTime t);

  const char* scorer_display_;
  const char* admission_display_;
  std::unique_ptr<EvictionScorer> scorer_;
  std::unique_ptr<AdmissionPolicy> admission_;
  Settings settings_;
  const sim::RateMeter* coax_;
  const trace::Catalog* catalog_;
  SegmentStore store_;
  // Whole-program admission: the full sizes of the admitted programs.
  DataSize committed_;
  // Every box's stream occupancy in one table.
  hfc::StreamSlots slots_;
  CellCounters counters_;
};

}  // namespace vodcache::cache
