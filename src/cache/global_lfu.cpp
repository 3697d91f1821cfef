#include "cache/global_lfu.hpp"

namespace vodcache::cache {

GlobalLfuStrategy::GlobalLfuStrategy(AccessHistory& history,
                                     ReplayCursor& cursor)
    : EvictionScorer(history), cursor_(&cursor) {
  if (cursor.board().lag() == sim::SimTime{}) {
    dirty_flag_.resize(cursor.board().program_count(), 0);
    dirty_list_.reserve(cursor.board().program_count());
    cursor.attach(*this);
  }
}

void GlobalLfuStrategy::refresh(sim::SimTime t) {
  if (cursor_->board().lag() == sim::SimTime{}) {
    for (const ProgramId program : dirty_list_) {
      dirty_flag_[program.value()] = 0;
      if (is_cached(program)) cached().update(program, score(program, t));
    }
    dirty_list_.clear();
    return;
  }
  if (cursor_->epoch() == seen_epoch_) return;
  // A new global batch arrived: re-rank everything we hold.
  seen_epoch_ = cursor_->epoch();
  cached().for_each_program(
      [&](ProgramId program) { cached().update(program, score(program, t)); });
}

}  // namespace vodcache::cache
