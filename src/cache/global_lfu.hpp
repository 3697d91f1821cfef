// Global LFU (paper section VI-A, figure 13): an LFU whose popularity data
// comes from every neighborhood in the system, not just the local one.
//
// Score: (the shard's ReplayView count, local recency).  At lag 0 that
// count is the live global in-window count; at lag > 0 it is the count at
// the last batch boundary plus the neighborhood's own accesses since (see
// popularity_board.hpp).
//
// The owning shard moves the view from its own events before any cell
// runs, and every GlobalLFU cell of the shard reads the same view; the
// view knows nothing of its readers.  A cell needs an exact order only
// for its cheapest cached program, so it ranks its cached set by lower
// bounds and makes only the bottom exact:
//
//  * A count only grows until one of the program's counted entries
//    expires: arrivals (the cut moving, the shard's own accesses) add to
//    it, and at a batch move the shard's own accesses re-enter through
//    the board.  Recency only grows too.  So a score stored at one event
//    stays a lower bound of the score at any later event, until the
//    expiry position passes one of the program's entries.
//  * A stored bound may give up `slack` of the count, so that it holds
//    until the expiry position passes the program's (slack + 1)-th oldest
//    counted entry.  A min-heap of those positions tells a refresh which
//    bounds lapsed; the refresh re-stores only those programs.  Programs
//    far above the cheapest one get a wide slack, so a popular program is
//    re-stored a few times per window, not once per access.
//  * Before a decision the refresh re-scores the bottom of the cached set
//    exactly until the cheapest stored score is exact.  Every other stored
//    score is a lower bound of its program's exact score, so that program
//    is the one an exact ranking of the whole cached set names (ties
//    break by program id either way).
//
// The cost of a decision grows with the bounds that lapsed and the
// programs re-scored at the bottom, not with the deployment's accesses.
// No cross-neighborhood synchronization, so shards can run on different
// threads; see ARCHITECTURE.md "Cross-shard couplings".
#pragma once

#include <cstdint>
#include <vector>

#include "cache/popularity_board.hpp"
#include "cache/strategy.hpp"
#include "util/flat_map.hpp"

namespace vodcache::cache {

class GlobalLfuStrategy final : public EvictionScorer {
 public:
  // `view` must outlive the strategy.
  GlobalLfuStrategy(AccessHistory& history, const ReplayView& view);

  // An access only raises the program's score: its stored bound holds.
  void on_access(ProgramId, sim::SimTime) override {}
  [[nodiscard]] Score score(ProgramId program, sim::SimTime) override;
  void on_admit(ProgramId program, sim::SimTime t) override;
  void on_evict(ProgramId program) override;

 private:
  // A cached program's entry-list slots as of its stored score: the first
  // one inside the window and the first one past the cut, and the global
  // position of the entry whose expiry ends the stored bound (kNone: the
  // bound is 0 and never lapses).
  struct Span {
    std::uint32_t expiry = 0;
    std::uint32_t cut = 0;
    std::uint32_t lapse = kNone;
  };
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  // A heap mark: (global position << 32) | program — the entry whose
  // expiry ends the program's stored bound.  A mark is live while the
  // program is cached and its span's lapse is that position; others are
  // stale and dropped when popped.
  using Mark = std::uint64_t;

  // Before a victim decision: re-stores the programs whose bounds lapsed,
  // then re-scores the cheapest stored programs exactly until the
  // cheapest is exact.
  void refresh(sim::SimTime t) override;
  // Moves the span to the view's positions; returns the exact count.
  [[nodiscard]] std::int64_t advance(ProgramId program, Span& span) const;
  // The score to store for `count` given up `slack` (clamped to it); marks
  // where that bound lapses.
  [[nodiscard]] Score bound(ProgramId program, Span& span, std::int64_t count,
                            std::int64_t slack);
  // The slack a bound re-stored away from the bottom keeps: half its
  // distance above the last cheapest count.
  [[nodiscard]] std::int64_t relaxed(std::int64_t count) const {
    return count > floor_ ? (count - floor_) / 2 : 0;
  }
  void push(Mark mark);

  const ReplayView* view_;
  util::FlatMap64<Span> spans_;  // by cached program
  std::vector<Mark> marks_;      // min-heap, one live mark per bound > 0
  // The exact count of the last cheapest program: bounds re-stored above
  // it keep half their distance to it as slack.
  std::int64_t floor_ = 0;
};

}  // namespace vodcache::cache
