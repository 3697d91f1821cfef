// Count-min sketch (Cormode & Muthukrishnan 2005) with TinyLFU-style
// periodic halving (Einziger et al. 2017).
//
// The admission side of the policy engine needs per-program access
// frequencies, but the streaming contract says state must be O(1) in the
// catalog and allocation-free in steady state.  The sketch fits exactly:
// `depth` rows of `width` counters, each access incrementing one counter
// per row, estimates reading the row minimum.  Collisions only ever
// inflate a counter, so the estimate is an upper bound on the true count —
// the "overestimate-only" property the unit suite pins.
//
// Freshness comes from halving, not windowing: every `halve_period`
// recorded accesses, every counter is divided by two (rounding down).
// Halving is simultaneous across the whole table, so for any two keys the
// estimate ordering is preserved (floor(x/2) is monotone and commutes with
// min) — old popularity decays geometrically without ever reordering the
// present.
#pragma once

#include <cstdint>
#include <vector>

namespace vodcache::cache {

class CountMinSketch {
 public:
  // `width` counters per row, `depth` independent rows, one halving every
  // `halve_period` increments.  All state is allocated here; increment()
  // and estimate() never touch the heap.
  CountMinSketch(std::uint32_t width, std::uint32_t depth,
                 std::uint64_t halve_period);

  void increment(std::uint64_t key);
  [[nodiscard]] std::uint32_t estimate(std::uint64_t key) const;

 private:
  [[nodiscard]] std::size_t slot(std::uint32_t row, std::uint64_t key) const;
  void halve();

  std::uint32_t width_;
  std::uint32_t depth_;
  std::uint64_t halve_period_;
  std::uint64_t since_halve_ = 0;
  // Row-major: row r's counters at [r * width_, (r + 1) * width_).
  std::vector<std::uint32_t> counters_;
};

}  // namespace vodcache::cache
