// Length-aware GreedyDual scorer: value-per-byte ranking, recency
// tie-breaks, and the inflation aging that distinguishes GreedyDual from
// plain size-aware LFU.
#include <gtest/gtest.h>

#include <vector>

#include "cache/greedy_dual.hpp"
#include "test_support.hpp"

namespace vodcache::cache {
namespace {

trace::Catalog lengths_minutes(std::initializer_list<int> mins) {
  std::vector<trace::ProgramInfo> programs;
  for (const int m : mins) {
    programs.push_back({sim::SimTime::minutes(m), sim::SimTime{}, 1.0, 0.0});
  }
  return trace::Catalog(std::move(programs));
}

sim::SimTime at(std::int64_t s) { return sim::SimTime::seconds(s); }

using test::access;

TEST(GreedyDual, LongRarelyWatchedProgramEvictsFirst) {
  // Program 0: 120 min, one access.  Program 1: 30 min, one access.
  // Same frequency, but the short program packs 4x the value per byte.
  const auto catalog = lengths_minutes({120, 30});
  AccessHistory history;
  GreedyDualScorer scorer(history, catalog);
  access(history, scorer, ProgramId{0}, at(0));
  scorer.on_admit(ProgramId{0}, at(0));
  access(history, scorer, ProgramId{1}, at(10));
  scorer.on_admit(ProgramId{1}, at(10));

  EXPECT_EQ(scorer.victim(at(20)), std::optional<ProgramId>(ProgramId{0}));
}

TEST(GreedyDual, FrequencyOvercomesLength) {
  // Four accesses to the 120-min program match one access to the 30-min
  // program per byte; the fifth outranks it.
  const auto catalog = lengths_minutes({120, 30});
  AccessHistory history;
  GreedyDualScorer scorer(history, catalog);
  access(history, scorer, ProgramId{1}, at(0));
  scorer.on_admit(ProgramId{1}, at(0));
  for (int i = 0; i < 5; ++i) {
    access(history, scorer, ProgramId{0}, at(10 + i));
  }
  scorer.on_admit(ProgramId{0}, at(20));

  EXPECT_EQ(scorer.victim(at(30)), std::optional<ProgramId>(ProgramId{1}));
}

TEST(GreedyDual, RecencyBreaksTies) {
  // Identical length and frequency: least recently accessed leaves first.
  const auto catalog = lengths_minutes({60, 60});
  AccessHistory history;
  GreedyDualScorer scorer(history, catalog);
  access(history, scorer, ProgramId{0}, at(0));
  scorer.on_admit(ProgramId{0}, at(0));
  access(history, scorer, ProgramId{1}, at(10));
  scorer.on_admit(ProgramId{1}, at(10));

  EXPECT_EQ(scorer.victim(at(20)), std::optional<ProgramId>(ProgramId{0}));
}

TEST(GreedyDual, EvictionRaisesInflation) {
  const auto catalog = lengths_minutes({60, 60});
  AccessHistory history;
  GreedyDualScorer scorer(history, catalog);
  access(history, scorer, ProgramId{0}, at(0));
  scorer.on_admit(ProgramId{0}, at(0));
  EXPECT_EQ(scorer.inflation(), 0);

  const auto victim = scorer.victim(at(10));
  ASSERT_TRUE(victim.has_value());
  scorer.on_evict(*victim);
  // L rose to the evicted program's H = 0 + 1 * scale / 3600 s.
  EXPECT_GT(scorer.inflation(), 0);
}

TEST(GreedyDual, InflationAgesStaleResidents) {
  // A stale resident is eventually outranked by a program it beats on
  // per-byte frequency — the aging that pure frequency/size ranking
  // cannot express.  Program 0 (30 min, 1 access) is admitted at L = 0;
  // program 1 (120 min) cycles through the cache, and although its
  // per-byte frequency stays below the resident's (3 / 120 min <
  // 1 / 30 min), each of its evictions raises L until a fresh copy prices
  // above the resident's frozen admission-time H.
  const auto catalog = lengths_minutes({30, 120});
  AccessHistory history;
  GreedyDualScorer scorer(history, catalog);
  access(history, scorer, ProgramId{0}, at(0));
  scorer.on_admit(ProgramId{0}, at(0));

  int rounds = 0;
  for (; rounds < 10; ++rounds) {
    access(history, scorer, ProgramId{1}, at(100 + rounds));
    scorer.on_admit(ProgramId{1}, at(100 + rounds));
    const auto victim = scorer.victim(at(100 + rounds));
    ASSERT_TRUE(victim.has_value());
    if (*victim == ProgramId{0}) break;  // the resident aged out
    scorer.on_evict(*victim);
  }
  EXPECT_EQ(rounds, 2);  // H1: 138, 415, then 831 > the resident's 555
  EXPECT_EQ(scorer.victim(at(200)), std::optional<ProgramId>(ProgramId{0}));
}

TEST(GreedyDual, WipeOfNonMinimalResidentDoesNotInflate) {
  // Failure injection can remove any resident; only minimum-H (victim)
  // evictions may move L, or survivors would violate L <= min H.
  const auto catalog = lengths_minutes({30, 120});
  AccessHistory history;
  GreedyDualScorer scorer(history, catalog);
  access(history, scorer, ProgramId{0}, at(0));  // short: high H
  scorer.on_admit(ProgramId{0}, at(0));
  access(history, scorer, ProgramId{1}, at(10));  // long: low H, the minimum
  scorer.on_admit(ProgramId{1}, at(10));

  scorer.on_evict(ProgramId{0});  // wipe the non-minimal resident
  EXPECT_EQ(scorer.inflation(), 0);

  scorer.on_evict(ProgramId{1});  // genuine victim eviction
  EXPECT_GT(scorer.inflation(), 0);
}

TEST(GreedyDual, ScoreOfCandidateUsesCurrentInflation) {
  const auto catalog = lengths_minutes({30});
  AccessHistory history;
  GreedyDualScorer scorer(history, catalog);
  access(history, scorer, ProgramId{0}, at(0));
  const auto before = scorer.score(ProgramId{0}, at(0));
  scorer.on_admit(ProgramId{0}, at(0));
  scorer.on_evict(ProgramId{0});  // victim eviction: L = before.first
  const auto after = scorer.score(ProgramId{0}, at(10));
  EXPECT_EQ(after.first, scorer.inflation() + before.first);
}

}  // namespace
}  // namespace vodcache::cache
