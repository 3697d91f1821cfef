#include "cache/access_history.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vodcache::cache {

void AccessHistory::record(ProgramId program, sim::SimTime t) {
  const std::uint64_t key = program.value();
  if (recency_on_) {
    std::int64_t* last = last_access_.find(key);
    if (last == nullptr) last = &last_access_.insert(key, 0);
    *last = ++sequence_;
  }
  if (window_length_) {
    expired_.clear();
    while (!window_.empty() && window_.front().time < t - *window_length_) {
      const ProgramId gone = window_.front().program;
      window_.pop_front();
      std::int64_t* count = window_counts_.find(gone.value());
      VODCACHE_ASSERT(count != nullptr && *count > 0);
      if (--*count == 0) window_counts_.erase(gone.value());
      expired_.push_back(gone);
    }
    if (*window_length_ > sim::SimTime{}) {
      window_.push_back({t, program});
      std::int64_t* count = window_counts_.find(key);
      if (count == nullptr) count = &window_counts_.insert(key, 0);
      ++*count;
    }
  }
  if (!lifetime_.empty()) ++lifetime_.at(key);
  if (probation_window_) {
    const std::int64_t t_ms = t.millis_count();
    const std::int64_t window_ms = probation_window_->millis_count();
    if (t_ms >= next_sweep_ms_) {
      // One sweep per window keeps the table within a window's worth of
      // programs past the 2x cutoff; a zero window sweeps every tick.
      next_sweep_ms_ = t_ms + std::max<std::int64_t>(window_ms, 1);
      swept_.clear();
      probation_.for_each([&](std::uint64_t swept, const LastTwo& entry) {
        if (entry.last_ms < t_ms - 2 * window_ms) swept_.push_back(swept);
      });
      for (const std::uint64_t swept : swept_) probation_.erase(swept);
    }
    if (LastTwo* entry = probation_.find(key)) {
      *entry = {t_ms, entry->last_ms};
    } else {
      probation_.insert(key, {t_ms, std::nullopt});
    }
  }
  if (sketch_) sketch_->increment(key);
}

}  // namespace vodcache::cache
