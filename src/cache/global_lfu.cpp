#include "cache/global_lfu.hpp"

#include <algorithm>
#include <functional>

#include "util/assert.hpp"

namespace vodcache::cache {

GlobalLfuStrategy::GlobalLfuStrategy(AccessHistory& history,
                                     const ReplayView& view)
    : EvictionScorer(history), view_(&view) {}

Score GlobalLfuStrategy::score(ProgramId program, sim::SimTime) {
  // A cached program's span is a head start: moving it is a short search.
  Span* span = spans_.find(program.value());
  return {span != nullptr ? advance(program, *span) : view_->count(program),
          recency(program)};
}

void GlobalLfuStrategy::on_admit(ProgramId program, sim::SimTime) {
  Span& span = spans_.insert(program.value(), Span{});
  const std::int64_t count = advance(program, span);
  cached().insert(program, bound(program, span, count, relaxed(count)));
}

void GlobalLfuStrategy::on_evict(ProgramId program) {
  EvictionScorer::on_evict(program);
  spans_.erase(program.value());  // its mark goes stale
}

void GlobalLfuStrategy::refresh(sim::SimTime) {
  const std::size_t expiry = view_->expiry();
  while (!marks_.empty() && (marks_.front() >> 32) < expiry) {
    const Mark mark = marks_.front();
    std::pop_heap(marks_.begin(), marks_.end(), std::greater<>{});
    marks_.pop_back();
    const ProgramId program{static_cast<std::uint32_t>(mark)};
    Span* span = spans_.find(program.value());
    if (span == nullptr || span->lapse != (mark >> 32)) {
      continue;  // evicted, or re-stored since
    }
    const std::int64_t count = advance(program, *span);
    cached().update(program, bound(program, *span, count, relaxed(count)));
  }
  // Every stored score is now a lower bound of its exact score; make the
  // cheapest one exact.
  while (const auto cheapest = cached().min()) {
    Span& span = *spans_.find(cheapest->value());
    const std::int64_t count = advance(*cheapest, span);
    const Score exact{count, recency(*cheapest)};
    const Score stored = *cached().score_of(*cheapest);
    VODCACHE_ASSERT(stored <= exact);
    if (stored == exact) {
      floor_ = count;
      return;
    }
    cached().update(*cheapest, bound(*cheapest, span, count, 0));
  }
}

std::int64_t GlobalLfuStrategy::advance(ProgramId program, Span& span) const {
  const ReplayBoard& board = view_->board();
  span.cut = board.slot_at_or_after(program, view_->cut(), span.cut);
  span.expiry = board.slot_at_or_after(program, view_->expiry(), span.expiry);
  return span.cut - span.expiry + view_->own(program);
}

Score GlobalLfuStrategy::bound(ProgramId program, Span& span,
                               std::int64_t count, std::int64_t slack) {
  slack = std::clamp<std::int64_t>(slack, 0, count);
  span.lapse = kNone;
  if (count > slack) {
    // The (slack + 1)-th oldest counted entry.  Counted entries past the
    // cut (the shard's own at lag > 0) are in the list too, so it exists,
    // and it started no later than the event being served.
    span.lapse = view_->board().position_of(
        program, span.expiry + static_cast<std::uint32_t>(slack),
        view_->expiry());
    push((static_cast<Mark>(span.lapse) << 32) | program.value());
  }
  return {count - slack, recency(program)};
}

void GlobalLfuStrategy::push(Mark mark) {
  if (marks_.size() >= std::max<std::size_t>(64, spans_.size() * 2 + 16)) {
    // Rebuild with exactly the live marks, one per lapsing bound.  Only
    // live marks re-store anything, so dropping the stale ones changes no
    // answer.
    marks_.clear();
    spans_.for_each([&](std::uint64_t id, const Span& span) {
      if (span.lapse == kNone) return;
      marks_.push_back((static_cast<Mark>(span.lapse) << 32) | id);
    });
    std::make_heap(marks_.begin(), marks_.end(), std::greater<>{});
  }
  marks_.push_back(mark);
  std::push_heap(marks_.begin(), marks_.end(), std::greater<>{});
}

}  // namespace vodcache::cache
