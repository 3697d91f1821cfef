#include "cache/victim_index.hpp"

#include <algorithm>
#include <functional>

namespace vodcache::cache {

// std::greater<> turns push_heap/pop_heap into a min-heap over
// (score, program).

void CachedSet::push_entry(Score score, std::uint32_t program) {
  const std::size_t bound = std::max<std::size_t>(64, by_program_.size() * 2 + 16);
  if (heap_.size() >= bound) {
    // Rebuild with exactly one live entry per program.  Live entries are
    // what every min() answer depends on, and they are preserved exactly,
    // so compaction is observationally invisible.
    heap_.clear();
    by_program_.for_each([this](std::uint64_t key, const Score& s) {
      heap_.emplace_back(s, static_cast<std::uint32_t>(key));
    });
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  heap_.emplace_back(score, program);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

void CachedSet::insert(ProgramId program, Score score) {
  VODCACHE_EXPECTS(!contains(program));
  by_program_.insert(program.value(), score);
  push_entry(score, program.value());
}

void CachedSet::erase(ProgramId program) {
  const bool present = by_program_.erase(program.value());
  VODCACHE_EXPECTS(present);
  // Heap entries for the program go stale and die on a later pop.
}

void CachedSet::update(ProgramId program, Score score) {
  Score* current = by_program_.find(program.value());
  if (current == nullptr) return;
  if (*current == score) return;
  const bool falls = score < *current;
  *current = score;
  // A rise keeps the program's older, lower entry as its bound; min()
  // re-pushes it at its current score if that entry surfaces.
  if (falls) push_entry(score, program.value());
}

bool CachedSet::contains(ProgramId program) const {
  return by_program_.contains(program.value());
}

std::optional<CachedSet::Score> CachedSet::score_of(ProgramId program) const {
  const Score* score = by_program_.find(program.value());
  if (score == nullptr) return std::nullopt;
  return *score;
}

std::optional<ProgramId> CachedSet::min() const {
  while (!heap_.empty()) {
    const auto [score, program] = heap_.front();
    const Score* current = by_program_.find(program);
    if (current != nullptr && *current == score) return ProgramId{program};
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    if (current != nullptr && score < *current) {
      // The program's score rose since this entry was pushed, and it may
      // be the program's only entry: put it back at the current score.
      heap_.back() = {*current, program};
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    } else {
      heap_.pop_back();
    }
  }
  return std::nullopt;
}

}  // namespace vodcache::cache
