// CachedSet: the set of cached programs ordered by retention score.
//
// A flat hash table (program -> score) plus a lazy min-heap of
// (score, program) entries.  Strategy scores can *decrease* (LFU history
// expiry, oracle horizon drift), which breaks a plain pop-and-revalidate
// heap.  The discipline here: every cached program keeps at least one
// heap entry at or below its current score.  insert() and a falling
// update() push an entry at the new score; a rising update() pushes
// nothing, since the older, lower entry still bounds it.  min() pops
// entries that no longer match the table; when the popped entry is a
// cached program's bound from before a rise, it goes back in at the
// current score.  So the entry carrying the current (score, program)
// minimum is always in the heap and min() finds it.  The heap is bounded:
// when stale entries accumulate past ~2x the table size it is rebuilt
// from the table (one entry per program at its current score), which
// keeps the discipline and therefore every subsequent min() answer.
// min() stays O(log n) amortized and the hot update path is
// allocation-free once the containers reach their high-water marks.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/flat_map.hpp"
#include "util/ids.hpp"

namespace vodcache::cache {

class CachedSet {
 public:
  using Score = std::pair<std::int64_t, std::int64_t>;

  void insert(ProgramId program, Score score);
  void erase(ProgramId program);
  // Updates the score if the program is present; no-op otherwise.
  void update(ProgramId program, Score score);

  [[nodiscard]] bool contains(ProgramId program) const;
  [[nodiscard]] std::optional<Score> score_of(ProgramId program) const;
  [[nodiscard]] std::size_t size() const { return by_program_.size(); }
  [[nodiscard]] bool empty() const { return by_program_.empty(); }

  // Program with the smallest (score, program) — the evict-first candidate.
  [[nodiscard]] std::optional<ProgramId> min() const;

  // Visits every cached program in slot order without materializing a
  // vector — scorers that re-rank the whole cached set call this from
  // their refresh hot path, where an allocation would break the zero-alloc
  // audit.  The visitor may update() scores during the visit (no
  // insert/erase).
  template <typename Fn>
  void for_each_program(Fn&& fn) const {
    by_program_.for_each([&fn](std::uint64_t key, const Score&) {
      fn(ProgramId{static_cast<std::uint32_t>(key)});
    });
  }

 private:
  // Min-heap entry; ties in score break toward the smaller program id,
  // matching the ordered-set index this replaced.
  using HeapEntry = std::pair<Score, std::uint32_t>;

  void push_entry(Score score, std::uint32_t program);

  util::FlatMap64<Score> by_program_;
  // Lazily pruned: entries are validated against by_program_ on pop.
  // mutable because min() discards stale entries without changing the
  // observable state.
  mutable std::vector<HeapEntry> heap_;
};

}  // namespace vodcache::cache
