// Unit tests for the cache layer: the cached-set index and all four
// replacement strategies from the paper.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/future_index.hpp"
#include "cache/global_lfu.hpp"
#include "cache/lfu.hpp"
#include "cache/lru.hpp"
#include "cache/oracle.hpp"
#include "cache/popularity_board.hpp"
#include "cache/victim_index.hpp"
#include "sim/replay_clock.hpp"
#include "util/rng.hpp"

namespace vodcache::cache {
namespace {

sim::SimTime at_min(std::int64_t minutes) { return sim::SimTime::minutes(minutes); }

// ---------------------------------------------------------------- CachedSet

TEST(CachedSet, InsertEraseContains) {
  CachedSet set;
  EXPECT_TRUE(set.empty());
  set.insert(ProgramId{1}, {5, 0});
  EXPECT_TRUE(set.contains(ProgramId{1}));
  EXPECT_EQ(set.size(), 1u);
  set.erase(ProgramId{1});
  EXPECT_FALSE(set.contains(ProgramId{1}));
}

TEST(CachedSet, MinReturnsLowestScore) {
  CachedSet set;
  set.insert(ProgramId{1}, {5, 0});
  set.insert(ProgramId{2}, {3, 0});
  set.insert(ProgramId{3}, {9, 0});
  EXPECT_EQ(set.min(), ProgramId{2});
}

TEST(CachedSet, MinOfEmptyIsNullopt) {
  const CachedSet set;
  EXPECT_EQ(set.min(), std::nullopt);
}

TEST(CachedSet, UpdateRerANKS) {
  CachedSet set;
  set.insert(ProgramId{1}, {5, 0});
  set.insert(ProgramId{2}, {3, 0});
  set.update(ProgramId{2}, {10, 0});
  EXPECT_EQ(set.min(), ProgramId{1});
  // Downward updates re-rank too (LFU window expiry path).
  set.update(ProgramId{1}, {20, 0});
  set.update(ProgramId{2}, {1, 0});
  EXPECT_EQ(set.min(), ProgramId{2});
}

TEST(CachedSet, UpdateOfAbsentIsNoOp) {
  CachedSet set;
  set.update(ProgramId{9}, {1, 1});
  EXPECT_TRUE(set.empty());
}

TEST(CachedSet, TieBrokenBySecondComponent) {
  CachedSet set;
  set.insert(ProgramId{1}, {5, 10});  // same count, later recency
  set.insert(ProgramId{2}, {5, 3});   // earlier recency -> evict first
  EXPECT_EQ(set.min(), ProgramId{2});
}

TEST(CachedSet, ScoreOf) {
  CachedSet set;
  set.insert(ProgramId{4}, {7, 2});
  EXPECT_EQ(set.score_of(ProgramId{4}), (CachedSet::Score{7, 2}));
  EXPECT_EQ(set.score_of(ProgramId{5}), std::nullopt);
}

// --------------------------------------------------------------------- LRU

TEST(Lru, VictimIsLeastRecentlyUsed) {
  LruStrategy lru;
  lru.record_access(ProgramId{1}, at_min(1));
  lru.on_admit(ProgramId{1}, at_min(1));
  lru.record_access(ProgramId{2}, at_min(2));
  lru.on_admit(ProgramId{2}, at_min(2));
  lru.record_access(ProgramId{3}, at_min(3));
  lru.on_admit(ProgramId{3}, at_min(3));
  EXPECT_EQ(lru.victim(at_min(4)), ProgramId{1});

  // Touch 1 -> victim moves to 2.
  lru.record_access(ProgramId{1}, at_min(5));
  EXPECT_EQ(lru.victim(at_min(6)), ProgramId{2});
}

TEST(Lru, CandidateAlwaysOutranksVictim) {
  // "If it is not in the cache already, it is added immediately."
  LruStrategy lru;
  lru.record_access(ProgramId{1}, at_min(1));
  lru.on_admit(ProgramId{1}, at_min(1));
  lru.record_access(ProgramId{9}, at_min(2));  // the candidate, just accessed
  EXPECT_GT(lru.score(ProgramId{9}, at_min(2)),
            lru.score(*lru.victim(at_min(2)), at_min(2)));
}

TEST(Lru, EvictRemovesFromCachedSet) {
  LruStrategy lru;
  lru.record_access(ProgramId{1}, at_min(1));
  lru.on_admit(ProgramId{1}, at_min(1));
  lru.on_evict(ProgramId{1});
  EXPECT_FALSE(lru.is_cached(ProgramId{1}));
  EXPECT_EQ(lru.victim(at_min(2)), std::nullopt);
}

TEST(Lru, NeverAccessedScoresLowest) {
  LruStrategy lru;
  lru.record_access(ProgramId{1}, at_min(1));
  EXPECT_LT(lru.score(ProgramId{42}, at_min(2)),
            lru.score(ProgramId{1}, at_min(2)));
}

TEST(Lru, ClassicReferenceSequence) {
  // Reference string 1,2,3,1,4 with capacity 3 (admissions driven manually
  // the way the index server would): 4 must evict 2.
  LruStrategy lru;
  for (const auto& [p, t] :
       {std::pair{1, 1}, {2, 2}, {3, 3}, {1, 4}}) {
    lru.record_access(ProgramId{static_cast<std::uint32_t>(p)}, at_min(t));
    if (!lru.is_cached(ProgramId{static_cast<std::uint32_t>(p)})) {
      lru.on_admit(ProgramId{static_cast<std::uint32_t>(p)}, at_min(t));
    }
  }
  lru.record_access(ProgramId{4}, at_min(5));
  EXPECT_EQ(lru.victim(at_min(5)), ProgramId{2});
}

// --------------------------------------------------------------------- LFU

TEST(Lfu, VictimIsLeastFrequent) {
  LfuStrategy lfu(sim::SimTime::hours(24));
  for (int i = 0; i < 3; ++i) lfu.record_access(ProgramId{1}, at_min(i));
  lfu.on_admit(ProgramId{1}, at_min(3));
  lfu.record_access(ProgramId{2}, at_min(4));
  lfu.on_admit(ProgramId{2}, at_min(4));
  EXPECT_EQ(lfu.victim(at_min(5)), ProgramId{2});
}

TEST(Lfu, FrequencyCountsWindowOnly) {
  LfuStrategy lfu(sim::SimTime::hours(1));
  lfu.record_access(ProgramId{1}, at_min(0));
  lfu.record_access(ProgramId{1}, at_min(10));
  EXPECT_EQ(lfu.score(ProgramId{1}, at_min(10)).first, 2);
  // Advance past the window: first event expires.
  lfu.record_access(ProgramId{2}, at_min(65));
  EXPECT_EQ(lfu.score(ProgramId{1}, at_min(65)).first, 1);
  lfu.record_access(ProgramId{2}, at_min(75));
  EXPECT_EQ(lfu.score(ProgramId{1}, at_min(75)).first, 0);
}

TEST(Lfu, ExpiryRerANKSCachedPrograms) {
  LfuStrategy lfu(sim::SimTime::hours(1));
  // Program 1: burst of 3 accesses at t=0; program 2: steady 2 accesses.
  for (int i = 0; i < 3; ++i) lfu.record_access(ProgramId{1}, at_min(0));
  lfu.on_admit(ProgramId{1}, at_min(0));
  lfu.record_access(ProgramId{2}, at_min(30));
  lfu.record_access(ProgramId{2}, at_min(55));
  lfu.on_admit(ProgramId{2}, at_min(55));
  EXPECT_EQ(lfu.victim(at_min(56)), ProgramId{2});
  // After t=60+30, program 1's burst has fully expired but program 2 keeps
  // one in-window access: victim flips to 1.
  lfu.record_access(ProgramId{3}, at_min(80));
  EXPECT_EQ(lfu.victim(at_min(80)), ProgramId{1});
}

TEST(Lfu, TiesResolveByRecency) {
  // "with ties being resolved using an LRU strategy"
  LfuStrategy lfu(sim::SimTime::hours(24));
  lfu.record_access(ProgramId{1}, at_min(1));
  lfu.on_admit(ProgramId{1}, at_min(1));
  lfu.record_access(ProgramId{2}, at_min(2));
  lfu.on_admit(ProgramId{2}, at_min(2));
  // Equal frequency (1 each); 1 is older -> victim.
  EXPECT_EQ(lfu.victim(at_min(3)), ProgramId{1});
}

TEST(Lfu, ZeroHistoryDegeneratesToLru) {
  LfuStrategy lfu(sim::SimTime{});
  for (int i = 0; i < 5; ++i) lfu.record_access(ProgramId{1}, at_min(i));
  lfu.on_admit(ProgramId{1}, at_min(5));
  lfu.record_access(ProgramId{2}, at_min(6));
  lfu.on_admit(ProgramId{2}, at_min(6));
  // Despite program 1's five accesses, frequency is always 0 with an empty
  // history; recency decides and 1 is older.
  EXPECT_EQ(lfu.score(ProgramId{1}, at_min(6)).first, 0);
  EXPECT_EQ(lfu.victim(at_min(7)), ProgramId{1});
}

TEST(Lfu, CandidateComparisonUsesFrequency) {
  LfuStrategy lfu(sim::SimTime::hours(24));
  for (int i = 0; i < 5; ++i) lfu.record_access(ProgramId{1}, at_min(i));
  lfu.on_admit(ProgramId{1}, at_min(5));
  lfu.record_access(ProgramId{2}, at_min(6));
  // Candidate 2 accessed once: does NOT outrank cached program 1.
  EXPECT_LT(lfu.score(ProgramId{2}, at_min(6)),
            lfu.score(ProgramId{1}, at_min(6)));
}

// -------------------------------------------------------------- FutureIndex

TEST(FutureIndex, CountsWithinHorizon) {
  FutureIndex index(3);
  index.add(ProgramId{0}, at_min(10));
  index.add(ProgramId{0}, at_min(20));
  index.add(ProgramId{0}, at_min(500));
  index.add(ProgramId{1}, at_min(15));
  index.freeze();

  EXPECT_EQ(index.count_in(ProgramId{0}, at_min(0), sim::SimTime::minutes(30)),
            2);
  EXPECT_EQ(index.count_in(ProgramId{0}, at_min(0), sim::SimTime::hours(24)),
            3);
  EXPECT_EQ(index.count_in(ProgramId{2}, at_min(0), sim::SimTime::hours(24)),
            0);
}

TEST(FutureIndex, StrictlyAfterSemantics) {
  FutureIndex index(1);
  index.add(ProgramId{0}, at_min(10));
  index.freeze();
  // An access exactly at t is not "in the future".
  EXPECT_EQ(index.count_in(ProgramId{0}, at_min(10), sim::SimTime::hours(1)),
            0);
  // An access exactly at t + horizon is included.
  EXPECT_EQ(index.count_in(ProgramId{0}, at_min(9), sim::SimTime::minutes(1)),
            1);
}

TEST(FutureIndex, UnsortedInputIsSortedByFreeze) {
  FutureIndex index(1);
  index.add(ProgramId{0}, at_min(50));
  index.add(ProgramId{0}, at_min(10));
  index.add(ProgramId{0}, at_min(30));
  index.freeze();
  EXPECT_EQ(index.count_in(ProgramId{0}, at_min(0), sim::SimTime::minutes(35)),
            2);
}

// ------------------------------------------------------------------ Oracle

TEST(Oracle, VictimHasFewestFutureAccesses) {
  FutureIndex index(3);
  // Program 0: heavy future use; program 1: one use; program 2: none.
  for (int i = 0; i < 10; ++i) index.add(ProgramId{0}, at_min(100 + i));
  index.add(ProgramId{1}, at_min(100));
  index.freeze();

  OracleStrategy oracle(index, sim::SimTime::days(3));
  for (std::uint32_t p = 0; p < 3; ++p) {
    oracle.record_access(ProgramId{p}, at_min(p));
    oracle.on_admit(ProgramId{p}, at_min(p));
  }
  EXPECT_EQ(oracle.victim(at_min(5)), ProgramId{2});
}

TEST(Oracle, ScoresDriftAsWindowSlides) {
  FutureIndex index(1);
  index.add(ProgramId{0}, at_min(100));
  index.freeze();
  OracleStrategy oracle(index, sim::SimTime::hours(1));
  EXPECT_EQ(oracle.score(ProgramId{0}, at_min(50)).first, 1);
  // By t=101 the access is in the past: zero future value.
  EXPECT_EQ(oracle.score(ProgramId{0}, at_min(101)).first, 0);
}

TEST(Oracle, RefreshRerANKSAfterDrift) {
  FutureIndex index(2);
  // Program 0's future use is imminent then gone; program 1's is later.
  index.add(ProgramId{0}, at_min(10));
  index.add(ProgramId{1}, at_min(300));
  index.add(ProgramId{1}, at_min(310));
  index.freeze();

  OracleStrategy oracle(index, sim::SimTime::hours(6),
                        /*refresh_interval=*/sim::SimTime::minutes(30));
  oracle.record_access(ProgramId{0}, at_min(0));
  oracle.on_admit(ProgramId{0}, at_min(0));
  oracle.record_access(ProgramId{1}, at_min(1));
  oracle.on_admit(ProgramId{1}, at_min(1));
  // Early: program 1 (2 future) outranks program 0 (1 future).
  EXPECT_EQ(oracle.victim(at_min(2)), ProgramId{0});
  // After program 0's sole future access passes, refresh flips nothing (0
  // still lowest), but by t=320 program 1's accesses also passed; then both
  // are zero and recency breaks the tie (0 accessed earlier).
  EXPECT_EQ(oracle.victim(at_min(400)), ProgramId{0});
}

// ----------------------------------------------- ReplayBoard / ReplayCursor

std::shared_ptr<const ReplayBoard> frozen_board(
    std::size_t programs, sim::SimTime window, sim::SimTime lag,
    const std::vector<ReplayBoard::Access>& accesses) {
  auto board = std::make_shared<ReplayBoard>(programs, window, lag);
  for (const auto& access : accesses) board->add(access.program, access.time);
  board->freeze();
  return board;
}

TEST(ReplayCursor, LiveCountsWithNoLag) {
  const auto board = frozen_board(4, sim::SimTime::hours(1), sim::SimTime{},
                                  {{at_min(0), ProgramId{1}},
                                   {at_min(10), ProgramId{1}}});
  ReplayCursor cursor(*board);
  cursor.advance(at_min(20), 2);
  EXPECT_EQ(cursor.visible_count(ProgramId{1}), 2);
  // First access expires at t=60.
  cursor.advance(at_min(61), 2);
  EXPECT_EQ(cursor.visible_count(ProgramId{1}), 1);
}

TEST(ReplayCursor, VisibilityHonorsTracePosition) {
  // Both accesses are at t=0, but only the first is before the reader's
  // trace position — the cursor must not count records the replay has not
  // reached yet.
  const auto board = frozen_board(2, sim::SimTime::hours(1), sim::SimTime{},
                                  {{at_min(0), ProgramId{1}},
                                   {at_min(0), ProgramId{1}}});
  ReplayCursor cursor(*board);
  cursor.advance(at_min(0), 1);
  EXPECT_EQ(cursor.visible_count(ProgramId{1}), 1);
  cursor.advance(at_min(0), 2);
  EXPECT_EQ(cursor.visible_count(ProgramId{1}), 2);
}

TEST(ReplayCursor, ChangeCallbackFiresOnIngestAndExpiry) {
  const auto board = frozen_board(2, sim::SimTime::hours(1), sim::SimTime{},
                                  {{at_min(0), ProgramId{0}}});
  int changes = 0;
  ReplayCursor cursor(*board, [&](ProgramId) { ++changes; });
  cursor.advance(at_min(0), 1);
  EXPECT_EQ(changes, 1);
  // Expiry also fires.
  cursor.advance(at_min(70), 1);
  EXPECT_EQ(changes, 2);
}

TEST(ReplayCursor, LaggedCountsFreezeAtBatch) {
  const auto board = frozen_board(2, sim::SimTime::hours(24),
                                  /*lag=*/sim::SimTime::minutes(30),
                                  {{at_min(5), ProgramId{0}},
                                   {at_min(40), ProgramId{0}}});
  ReplayCursor cursor(*board);
  // Before the first batch boundary, the snapshot is empty.
  cursor.advance(at_min(10), 1);
  EXPECT_EQ(cursor.visible_count(ProgramId{0}), 0);
  // After the 30-minute boundary the first access becomes visible.
  cursor.advance(at_min(31), 1);
  EXPECT_EQ(cursor.visible_count(ProgramId{0}), 1);
  // The access at t=40 stays invisible until t=60.
  cursor.advance(at_min(45), 2);
  EXPECT_EQ(cursor.visible_count(ProgramId{0}), 1);
  cursor.advance(at_min(61), 2);
  EXPECT_EQ(cursor.visible_count(ProgramId{0}), 2);
}

TEST(ReplayCursor, SnapshotEpochAdvancesPerCrossing) {
  const auto board = frozen_board(1, sim::SimTime::hours(24),
                                  sim::SimTime::minutes(30), {});
  ReplayCursor cursor(*board);
  EXPECT_EQ(cursor.snapshot_epoch(), 0u);
  cursor.advance(at_min(31), 0);
  EXPECT_EQ(cursor.snapshot_epoch(), 1u);
  // Crossing two boundaries in one advance publishes once: only the last
  // boundary's snapshot matters.
  cursor.advance(at_min(95), 0);
  EXPECT_EQ(cursor.snapshot_epoch(), 2u);
}

TEST(ReplayCursor, LaggedExpiryHonorsWindowAtBoundary) {
  const std::vector<ReplayBoard::Access> accesses{{at_min(0), ProgramId{0}}};
  {
    const auto board = frozen_board(1, sim::SimTime::hours(1),
                                    sim::SimTime::minutes(30), accesses);
    ReplayCursor cursor(*board);
    // At the t=90 boundary the access is 90 > 60 minutes old: expired.
    cursor.advance(at_min(95), 1);
    EXPECT_EQ(cursor.visible_count(ProgramId{0}), 0);
  }
  {
    const auto board = frozen_board(1, sim::SimTime::hours(1),
                                    sim::SimTime::minutes(30), accesses);
    ReplayCursor cursor(*board);
    // At the t=30 boundary it was visible.
    cursor.advance(at_min(35), 1);
    EXPECT_EQ(cursor.visible_count(ProgramId{0}), 1);
  }
}

// The paper's Global-LFU visibility rule, counted from scratch: what a
// neighborhood may see of `program` once accesses [0, upto) are recorded
// and the clock reads t.  Lag 0: the in-window count, time >= t - window.
// Lag > 0: the snapshot at B, the last multiple of lag <= t — accesses with
// time in [B - window, B) (an access exactly at B lands after the publish).
std::int64_t brute_force_visible(const std::vector<ReplayBoard::Access>& accesses,
                                 std::size_t upto, ProgramId program,
                                 sim::SimTime t, sim::SimTime window,
                                 sim::SimTime lag) {
  const bool lagged = lag > sim::SimTime{};
  const sim::SimTime as_of =
      lagged ? sim::SimTime::millis(t.millis_count() / lag.millis_count() *
                                    lag.millis_count())
             : t;
  std::int64_t count = 0;
  for (std::size_t i = 0; i < upto; ++i) {
    const auto& access = accesses[i];
    if (access.program == program && access.time >= as_of - window &&
        (!lagged || access.time < as_of)) {
      ++count;
    }
  }
  return count;
}

// Cross-validation of the replay cursor against the brute-force rule: any
// non-decreasing access sequence must show the same visible counts at
// every step, live and lagged alike.
TEST(ReplayCursor, MatchesLiveBoardOverRandomSequence) {
  Rng rng(2026);
  constexpr std::size_t kPrograms = 6;
  const auto window = sim::SimTime::hours(2);
  std::vector<ReplayBoard::Access> accesses;
  sim::SimTime t;
  for (int i = 0; i < 300; ++i) {
    t += sim::SimTime::seconds(static_cast<std::int64_t>(rng.uniform_u64(600)));
    accesses.push_back(
        {t, ProgramId{static_cast<std::uint32_t>(rng.uniform_u64(kPrograms))}});
  }

  for (const auto lag : {sim::SimTime{}, sim::SimTime::minutes(30)}) {
    const auto replay = frozen_board(kPrograms, window, lag, accesses);
    ReplayCursor cursor(*replay);
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      cursor.advance(accesses[i].time, i + 1);
      for (std::uint32_t p = 0; p < kPrograms; ++p) {
        ASSERT_EQ(cursor.visible_count(ProgramId{p}),
                  brute_force_visible(accesses, i + 1, ProgramId{p},
                                      accesses[i].time, window, lag))
            << "program " << p << " after access " << i << " (lag "
            << lag.minutes_f() << "m)";
      }
    }
  }
}

// ------------------------------------------------------- GlobalLFU, replay

TEST(GlobalLfuReplay, SeesAccessesFromOtherNeighborhoods) {
  std::vector<ReplayBoard::Access> accesses;
  for (int i = 0; i < 5; ++i) accesses.push_back({at_min(i), ProgramId{1}});
  accesses.push_back({at_min(6), ProgramId{2}});
  const auto board =
      frozen_board(4, sim::SimTime::hours(24), sim::SimTime{}, accesses);

  sim::ReplayClock clock_a, clock_b;
  GlobalLfuStrategy a(board, &clock_a);
  GlobalLfuStrategy b(board, &clock_b);

  // Neighborhood A sees lots of program 1; B has never seen it locally.
  for (std::size_t i = 0; i < 5; ++i) {
    clock_a = {at_min(static_cast<std::int64_t>(i)), i};
    a.record_access(ProgramId{1}, clock_a.now);
  }
  clock_b = {at_min(6), 5};
  b.record_access(ProgramId{2}, at_min(6));
  // B's scoring still ranks 1 above 2 thanks to global data.
  clock_b = {at_min(7), 6};
  EXPECT_GT(b.score(ProgramId{1}, at_min(7)), b.score(ProgramId{2}, at_min(7)));
}

TEST(GlobalLfuReplay, ReranksRemoteCachedPrograms) {
  std::vector<ReplayBoard::Access> accesses{{at_min(0), ProgramId{1}},
                                            {at_min(1), ProgramId{2}},
                                            {at_min(1), ProgramId{2}}};
  for (int i = 0; i < 4; ++i) accesses.push_back({at_min(3), ProgramId{1}});
  const auto board =
      frozen_board(4, sim::SimTime::hours(24), sim::SimTime{}, accesses);

  sim::ReplayClock clock_a, clock_b;
  GlobalLfuStrategy a(board, &clock_a);
  GlobalLfuStrategy b(board, &clock_b);

  clock_b = {at_min(0), 0};
  b.record_access(ProgramId{1}, at_min(0));
  b.on_admit(ProgramId{1}, at_min(0));
  clock_b = {at_min(1), 1};
  b.record_access(ProgramId{2}, at_min(1));
  clock_b = {at_min(1), 2};
  b.record_access(ProgramId{2}, at_min(1));
  b.on_admit(ProgramId{2}, at_min(1));
  clock_b = {at_min(2), 3};
  EXPECT_EQ(b.victim(at_min(2)), ProgramId{1});

  // A's traffic boosts program 1 globally; B's victim flips to 2 without B
  // seeing any local access.
  for (std::size_t i = 0; i < 4; ++i) {
    clock_a = {at_min(3), 3 + i};
    a.record_access(ProgramId{1}, at_min(3));
  }
  clock_b = {at_min(4), 7};
  EXPECT_EQ(b.victim(at_min(4)), ProgramId{2});
}

TEST(GlobalLfuReplay, LaggedModeAugmentsSnapshotWithLocal) {
  const auto board = frozen_board(4, sim::SimTime::hours(24),
                                  /*lag=*/sim::SimTime::minutes(30),
                                  {{at_min(1), ProgramId{1}},
                                   {at_min(2), ProgramId{1}},
                                   {at_min(3), ProgramId{2}}});

  sim::ReplayClock clock_a, clock_b;
  GlobalLfuStrategy a(board, &clock_a);
  GlobalLfuStrategy b(board, &clock_b);

  // Before any batch: A's local accesses count for A but not for B.
  clock_a = {at_min(1), 0};
  a.record_access(ProgramId{1}, at_min(1));
  clock_a = {at_min(2), 1};
  a.record_access(ProgramId{1}, at_min(2));
  clock_b = {at_min(3), 2};
  b.record_access(ProgramId{2}, at_min(3));

  clock_a = {at_min(4), 3};
  clock_b = {at_min(4), 3};
  EXPECT_EQ(a.score(ProgramId{1}, at_min(4)).first, 2);
  EXPECT_EQ(b.score(ProgramId{1}, at_min(4)).first, 0);
  EXPECT_EQ(b.score(ProgramId{2}, at_min(4)).first, 1);

  // After the batch, B sees A's traffic.
  clock_b = {at_min(31), 3};
  EXPECT_EQ(b.score(ProgramId{1}, at_min(31)).first, 2);
}

}  // namespace
}  // namespace vodcache::cache
