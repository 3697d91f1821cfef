#include "cache/global_lfu.hpp"

namespace vodcache::cache {

GlobalLfuStrategy::GlobalLfuStrategy(ReplayCursor& cursor) : cursor_(&cursor) {
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

void GlobalLfuStrategy::record_access(ProgramId program, sim::SimTime t) {
  touch(program);
  cached().update(program, score(program, t));
}

Score GlobalLfuStrategy::score(ProgramId program, sim::SimTime /*t*/) {
  return {cursor_->count(program), recency(program)};
}

}  // namespace vodcache::cache
