// Count-min sketch unit suite (cache/sketch.hpp): the properties the
// TinyLFU admission gate leans on.
//
//  * overestimate-only: collisions inflate counters, never deflate them,
//    so estimate(k) >= the true count of k — an admission threshold on the
//    estimate can admit early but never starve a genuinely popular program;
//  * halving is simultaneous and monotone (floor(x/2) commutes with the
//    row minimum), so decay never reorders two keys' estimates.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "cache/sketch.hpp"

namespace vodcache::cache {
namespace {

TEST(CountMinSketch, UnseenKeyEstimatesZero) {
  CountMinSketch sketch(1024, 4, 1ull << 40);
  EXPECT_EQ(sketch.estimate(7), 0u);
  sketch.increment(7);
  // A wide, near-empty sketch has no colliding rows for a single key.
  EXPECT_EQ(sketch.estimate(7), 1u);
  EXPECT_EQ(sketch.estimate(8), 0u);
}

TEST(CountMinSketch, ExactWhenSparse) {
  // Few keys in a wide sketch: every estimate equals the true count.
  CountMinSketch sketch(4096, 4, 1ull << 40);
  for (std::uint64_t key = 0; key < 8; ++key) {
    for (std::uint64_t n = 0; n <= key; ++n) sketch.increment(key);
  }
  for (std::uint64_t key = 0; key < 8; ++key) {
    EXPECT_EQ(sketch.estimate(key), key + 1) << "key " << key;
  }
}

TEST(CountMinSketch, OverestimateOnlyUnderHeavyCollision) {
  // A deliberately tiny sketch (width 4) guarantees collisions; the
  // estimate may inflate but must never undercount.
  CountMinSketch sketch(4, 2, 1ull << 40);
  std::map<std::uint64_t, std::uint32_t> truth;
  std::uint64_t state = 0x243F6A8885A308D3ULL;  // deterministic LCG stream
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t key = (state >> 33) % 64;
    sketch.increment(key);
    ++truth[key];
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(sketch.estimate(key), count) << "key " << key;
  }
}

TEST(CountMinSketch, HalvingFiresOnPeriodAndFloorsCounts) {
  CountMinSketch sketch(1024, 4, 10);
  for (int i = 0; i < 9; ++i) sketch.increment(42);
  EXPECT_EQ(sketch.estimate(42), 9u);  // no halving yet
  sketch.increment(42);  // 10th increment crosses the period
  EXPECT_EQ(sketch.estimate(42), 5u);  // floor(10 / 2)
  for (int i = 0; i < 9; ++i) sketch.increment(42);
  EXPECT_EQ(sketch.estimate(42), 14u);  // the period restarts at the halving
}

TEST(CountMinSketch, HalvingPreservesRelativeOrder) {
  // Keys ranked by true frequency stay ranked (weakly) through decay:
  // halving is simultaneous and floor(x/2) is monotone.
  CountMinSketch sketch(4096, 4, 1ull << 40);
  const std::vector<std::uint64_t> keys{11, 22, 33, 44};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t n = 0; n < (i + 1) * 5; ++n) sketch.increment(keys[i]);
  }
  std::vector<std::uint32_t> before;
  for (const auto key : keys) before.push_back(sketch.estimate(key));
  // Force several halvings through a disjoint drain key.
  CountMinSketch decayed(4096, 4, 10);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t n = 0; n < (i + 1) * 5; ++n) decayed.increment(keys[i]);
  }
  for (int i = 0; i < 40; ++i) decayed.increment(999);
  // Nine halvings have fired: the hottest key's 20 counts are gone.
  EXPECT_EQ(decayed.estimate(keys.back()), 0u);
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_GE(decayed.estimate(keys[i]), decayed.estimate(keys[i - 1]))
        << "order broken between " << keys[i - 1] << " and " << keys[i];
    EXPECT_LE(decayed.estimate(keys[i]), before[i]);
  }
}

TEST(CountMinSketch, DecayForgetsColdKeysButNotHotOnes) {
  // The TinyLFU admission story in miniature: a burst for one key followed
  // by sustained traffic for another.  After enough halvings the burst
  // key's credit decays toward zero while the active key stays above it.
  CountMinSketch sketch(1024, 4, 50);
  for (int i = 0; i < 40; ++i) sketch.increment(1);  // the one-evening wonder
  for (int i = 0; i < 400; ++i) sketch.increment(2);  // the perennial
  // Eight halvings have fired: the perennial sits far below its 400.
  EXPECT_LT(sketch.estimate(2), 100u);
  EXPECT_LE(sketch.estimate(1), 1u);
  EXPECT_GT(sketch.estimate(2), sketch.estimate(1));
}

}  // namespace
}  // namespace vodcache::cache
