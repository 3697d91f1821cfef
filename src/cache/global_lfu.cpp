#include "cache/global_lfu.hpp"

namespace vodcache::cache {

GlobalLfuStrategy::GlobalLfuStrategy(AccessHistory& history,
                                     const ReplayCursor& cursor)
    : EvictionScorer(history),
      cursor_(&cursor),
      seen_ingested_(cursor.ingested()),
      seen_expired_(cursor.expired()) {}

void GlobalLfuStrategy::refresh(sim::SimTime t) {
  if (cursor_->board().lag() == sim::SimTime{}) {
    rerank(seen_ingested_, cursor_->ingested(), t);
    rerank(seen_expired_, cursor_->expired(), t);
    seen_ingested_ = cursor_->ingested();
    seen_expired_ = cursor_->expired();
    return;
  }
  if (cursor_->epoch() == seen_epoch_) return;
  // A new global batch arrived: re-rank everything we hold.
  seen_epoch_ = cursor_->epoch();
  cached().for_each_program(
      [&](ProgramId program) { cached().update(program, score(program, t)); });
}

void GlobalLfuStrategy::rerank(std::size_t from, std::size_t to,
                               sim::SimTime t) {
  if (cached().empty()) return;
  for (std::size_t i = from; i < to; ++i) {
    const ProgramId program = cursor_->board().access(i).program;
    const auto stored = cached().score_of(program);
    if (stored && stored->first != cursor_->count(program)) {
      cached().update(program, score(program, t));
    }
  }
}

}  // namespace vodcache::cache
