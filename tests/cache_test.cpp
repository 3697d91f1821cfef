// Unit tests for the cache layer: the cached-set index and all four
// replacement strategies from the paper.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <string>
#include <vector>

#include "cache/access_history.hpp"
#include "cache/future_index.hpp"
#include "cache/global_lfu.hpp"
#include "cache/lfu.hpp"
#include "cache/lru.hpp"
#include "cache/oracle.hpp"
#include "cache/popularity_board.hpp"
#include "cache/victim_index.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace vodcache::cache {
namespace {

sim::SimTime at_min(std::int64_t minutes) { return sim::SimTime::minutes(minutes); }

using test::access;

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
  AccessHistory history;
  LruStrategy lru(history);
  access(history, lru, ProgramId{1}, at_min(1));
  lru.on_admit(ProgramId{1}, at_min(1));
  access(history, lru, ProgramId{2}, at_min(2));
  lru.on_admit(ProgramId{2}, at_min(2));
  access(history, lru, ProgramId{3}, at_min(3));
  lru.on_admit(ProgramId{3}, at_min(3));
  EXPECT_EQ(lru.victim(at_min(4)), ProgramId{1});

  // Touch 1 -> victim moves to 2.
  access(history, lru, ProgramId{1}, at_min(5));
  EXPECT_EQ(lru.victim(at_min(6)), ProgramId{2});
}

TEST(Lru, CandidateAlwaysOutranksVictim) {
  // "If it is not in the cache already, it is added immediately."
  AccessHistory history;
  LruStrategy lru(history);
  access(history, lru, ProgramId{1}, at_min(1));
  lru.on_admit(ProgramId{1}, at_min(1));
  access(history, lru, ProgramId{9}, at_min(2));  // the candidate
  EXPECT_GT(lru.score(ProgramId{9}, at_min(2)),
            lru.score(*lru.victim(at_min(2)), at_min(2)));
}

TEST(Lru, EvictRemovesFromCachedSet) {
  AccessHistory history;
  LruStrategy lru(history);
  access(history, lru, ProgramId{1}, at_min(1));
  lru.on_admit(ProgramId{1}, at_min(1));
  lru.on_evict(ProgramId{1});
  EXPECT_FALSE(lru.is_cached(ProgramId{1}));
  EXPECT_EQ(lru.victim(at_min(2)), std::nullopt);
}

TEST(Lru, NeverAccessedScoresLowest) {
  AccessHistory history;
  LruStrategy lru(history);
  access(history, lru, ProgramId{1}, at_min(1));
  EXPECT_LT(lru.score(ProgramId{42}, at_min(2)),
            lru.score(ProgramId{1}, at_min(2)));
}

TEST(Lru, ClassicReferenceSequence) {
  // Reference string 1,2,3,1,4 with capacity 3 (admissions driven manually
  // the way the index server would): 4 must evict 2.
  AccessHistory history;
  LruStrategy lru(history);
  for (const auto& [p, t] :
       {std::pair{1, 1}, {2, 2}, {3, 3}, {1, 4}}) {
    access(history, lru, ProgramId{static_cast<std::uint32_t>(p)}, at_min(t));
    if (!lru.is_cached(ProgramId{static_cast<std::uint32_t>(p)})) {
      lru.on_admit(ProgramId{static_cast<std::uint32_t>(p)}, at_min(t));
    }
  }
  access(history, lru, ProgramId{4}, at_min(5));
  EXPECT_EQ(lru.victim(at_min(5)), ProgramId{2});
}

// --------------------------------------------------------------------- LFU

TEST(Lfu, VictimIsLeastFrequent) {
  AccessHistory history;
  LfuStrategy lfu(history, sim::SimTime::hours(24));
  for (int i = 0; i < 3; ++i) access(history, lfu, ProgramId{1}, at_min(i));
  lfu.on_admit(ProgramId{1}, at_min(3));
  access(history, lfu, ProgramId{2}, at_min(4));
  lfu.on_admit(ProgramId{2}, at_min(4));
  EXPECT_EQ(lfu.victim(at_min(5)), ProgramId{2});
}

TEST(Lfu, FrequencyCountsWindowOnly) {
  AccessHistory history;
  LfuStrategy lfu(history, sim::SimTime::hours(1));
  access(history, lfu, ProgramId{1}, at_min(0));
  access(history, lfu, ProgramId{1}, at_min(10));
  EXPECT_EQ(lfu.score(ProgramId{1}, at_min(10)).first, 2);
  // Advance past the window: first event expires.
  access(history, lfu, ProgramId{2}, at_min(65));
  EXPECT_EQ(lfu.score(ProgramId{1}, at_min(65)).first, 1);
  access(history, lfu, ProgramId{2}, at_min(75));
  EXPECT_EQ(lfu.score(ProgramId{1}, at_min(75)).first, 0);
}

TEST(Lfu, ExpiryRerANKSCachedPrograms) {
  AccessHistory history;
  LfuStrategy lfu(history, sim::SimTime::hours(1));
  // Program 1: burst of 3 accesses at t=0; program 2: steady 2 accesses.
  for (int i = 0; i < 3; ++i) access(history, lfu, ProgramId{1}, at_min(0));
  lfu.on_admit(ProgramId{1}, at_min(0));
  access(history, lfu, ProgramId{2}, at_min(30));
  access(history, lfu, ProgramId{2}, at_min(55));
  lfu.on_admit(ProgramId{2}, at_min(55));
  EXPECT_EQ(lfu.victim(at_min(56)), ProgramId{2});
  // After t=60+30, program 1's burst has fully expired but program 2 keeps
  // one in-window access: victim flips to 1.
  access(history, lfu, ProgramId{3}, at_min(80));
  EXPECT_EQ(lfu.victim(at_min(80)), ProgramId{1});
}

TEST(Lfu, TiesResolveByRecency) {
  // "with ties being resolved using an LRU strategy"
  AccessHistory history;
  LfuStrategy lfu(history, sim::SimTime::hours(24));
  access(history, lfu, ProgramId{1}, at_min(1));
  lfu.on_admit(ProgramId{1}, at_min(1));
  access(history, lfu, ProgramId{2}, at_min(2));
  lfu.on_admit(ProgramId{2}, at_min(2));
  // Equal frequency (1 each); 1 is older -> victim.
  EXPECT_EQ(lfu.victim(at_min(3)), ProgramId{1});
}

TEST(Lfu, ZeroHistoryDegeneratesToLru) {
  AccessHistory history;
  LfuStrategy lfu(history, sim::SimTime{});
  for (int i = 0; i < 5; ++i) access(history, lfu, ProgramId{1}, at_min(i));
  lfu.on_admit(ProgramId{1}, at_min(5));
  access(history, lfu, ProgramId{2}, at_min(6));
  lfu.on_admit(ProgramId{2}, at_min(6));
  // Despite program 1's five accesses, frequency is always 0 with an empty
  // history; recency decides and 1 is older.
  EXPECT_EQ(lfu.score(ProgramId{1}, at_min(6)).first, 0);
  EXPECT_EQ(lfu.victim(at_min(7)), ProgramId{1});
}

TEST(Lfu, CandidateComparisonUsesFrequency) {
  AccessHistory history;
  LfuStrategy lfu(history, sim::SimTime::hours(24));
  for (int i = 0; i < 5; ++i) access(history, lfu, ProgramId{1}, at_min(i));
  lfu.on_admit(ProgramId{1}, at_min(5));
  access(history, lfu, ProgramId{2}, at_min(6));
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

  AccessHistory history;
  OracleStrategy oracle(history, index, sim::SimTime::days(3));
  for (std::uint32_t p = 0; p < 3; ++p) {
    access(history, oracle, ProgramId{p}, at_min(p));
    oracle.on_admit(ProgramId{p}, at_min(p));
  }
  EXPECT_EQ(oracle.victim(at_min(5)), ProgramId{2});
}

TEST(Oracle, ScoresDriftAsWindowSlides) {
  FutureIndex index(1);
  index.add(ProgramId{0}, at_min(100));
  index.freeze();
  AccessHistory history;
  OracleStrategy oracle(history, index, sim::SimTime::hours(1));
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

  AccessHistory history;
  OracleStrategy oracle(history, index, sim::SimTime::hours(6),
                        /*refresh_interval=*/sim::SimTime::minutes(30));
  access(history, oracle, ProgramId{0}, at_min(0));
  oracle.on_admit(ProgramId{0}, at_min(0));
  access(history, oracle, ProgramId{1}, at_min(1));
  oracle.on_admit(ProgramId{1}, at_min(1));
  // Early: program 1 (2 future) outranks program 0 (1 future).
  EXPECT_EQ(oracle.victim(at_min(2)), ProgramId{0});
  // After program 0's sole future access passes, refresh flips nothing (0
  // still lowest), but by t=320 program 1's accesses also passed; then both
  // are zero and recency breaks the tie (0 accessed earlier).
  EXPECT_EQ(oracle.victim(at_min(400)), ProgramId{0});
}

// ------------------------------------------------- ReplayBoard / ReplayView
//
// The ReplayCursor suite pins the view's counts: the read position a shard
// keeps over the board, moved by its own events.

// One board entry: a session start.
struct Access {
  sim::SimTime time;
  ProgramId program;
};

std::shared_ptr<const ReplayBoard> frozen_board(
    std::size_t programs, sim::SimTime window, sim::SimTime lag,
    const std::vector<Access>& accesses) {
  auto board = std::make_shared<ReplayBoard>(programs, window, lag);
  for (const auto& access : accesses) board->add(access.program, access.time);
  board->freeze();
  return board;
}

TEST(ReplayCursor, LiveCountsWithNoLag) {
  const auto board = frozen_board(4, sim::SimTime::hours(1), sim::SimTime{},
                                  {{at_min(0), ProgramId{1}},
                                   {at_min(10), ProgramId{1}}});
  ReplayView view(*board);
  view.on_boundary(at_min(20));
  EXPECT_EQ(view.count(ProgramId{1}), 2);
  // First access expires at t=60.
  view.on_boundary(at_min(61));
  EXPECT_EQ(view.count(ProgramId{1}), 1);
}

TEST(ReplayCursor, VisibilityHonorsTracePosition) {
  // Both accesses are at t=0, but a boundary at t=0 runs before either
  // session starts, and the first session start sees only itself — the
  // view must not count records the replay has not reached yet.
  const auto board = frozen_board(2, sim::SimTime::hours(1), sim::SimTime{},
                                  {{at_min(0), ProgramId{1}},
                                   {at_min(0), ProgramId{1}}});
  ReplayView view(*board);
  view.on_boundary(at_min(0));
  EXPECT_EQ(view.count(ProgramId{1}), 0);
  view.on_session_start(0, ProgramId{1}, at_min(0));
  EXPECT_EQ(view.count(ProgramId{1}), 1);
  view.on_session_start(1, ProgramId{1}, at_min(0));
  EXPECT_EQ(view.count(ProgramId{1}), 2);
}

TEST(ReplayCursor, AccessExactlyOneWindowOldStillCounts) {
  const auto board = frozen_board(1, sim::SimTime::hours(1), sim::SimTime{},
                                  {{at_min(10), ProgramId{0}}});
  ReplayView view(*board);
  view.on_boundary(at_min(70));
  EXPECT_EQ(view.count(ProgramId{0}), 1);
  view.on_boundary(at_min(70) + sim::SimTime::millis(1));
  EXPECT_EQ(view.count(ProgramId{0}), 0);
}

TEST(ReplayCursor, LaggedCountsFreezeAtBatch) {
  const auto board = frozen_board(2, sim::SimTime::hours(24),
                                  /*lag=*/sim::SimTime::minutes(30),
                                  {{at_min(5), ProgramId{0}},
                                   {at_min(40), ProgramId{0}}});
  ReplayView view(*board);
  // Before the first batch boundary, no remote access is visible.
  view.on_boundary(at_min(10));
  EXPECT_EQ(view.count(ProgramId{0}), 0);
  // After the 30-minute boundary the first access becomes visible.
  view.on_boundary(at_min(31));
  EXPECT_EQ(view.count(ProgramId{0}), 1);
  // The access at t=40 stays invisible until t=60.
  view.on_boundary(at_min(45));
  EXPECT_EQ(view.count(ProgramId{0}), 1);
  view.on_boundary(at_min(61));
  EXPECT_EQ(view.count(ProgramId{0}), 2);
}

TEST(ReplayCursor, SnapshotEpochAdvancesPerCrossing) {
  const auto board = frozen_board(1, sim::SimTime::hours(24),
                                  sim::SimTime::minutes(30),
                                  {{at_min(10), ProgramId{0}},
                                   {at_min(40), ProgramId{0}},
                                   {at_min(70), ProgramId{0}},
                                   {at_min(100), ProgramId{0}}});
  ReplayView view(*board);
  EXPECT_EQ(view.cut(), 0u);
  view.on_boundary(at_min(31));
  EXPECT_EQ(view.cut(), 1u);
  // Crossing two boundaries in one move lands on the last one: the
  // snapshot is the t=90 batch's.
  view.on_boundary(at_min(95));
  EXPECT_EQ(view.cut(), 3u);
  EXPECT_EQ(view.count(ProgramId{0}), 3);
  // Within a batch nothing moves, though the t=100 access has passed.
  view.on_boundary(at_min(110));
  EXPECT_EQ(view.cut(), 3u);
  EXPECT_EQ(view.count(ProgramId{0}), 3);
}

TEST(ReplayCursor, LaggedExpiryHonorsWindowAtBoundary) {
  const std::vector<Access> accesses{{at_min(0), ProgramId{0}}};
  {
    const auto board = frozen_board(1, sim::SimTime::hours(1),
                                    sim::SimTime::minutes(30), accesses);
    ReplayView view(*board);
    // At the t=90 boundary the access is 90 > 60 minutes old: expired.
    view.on_boundary(at_min(95));
    EXPECT_EQ(view.count(ProgramId{0}), 0);
  }
  {
    const auto board = frozen_board(1, sim::SimTime::hours(1),
                                    sim::SimTime::minutes(30), accesses);
    ReplayView view(*board);
    // At the t=30 boundary it was visible.
    view.on_boundary(at_min(35));
    EXPECT_EQ(view.count(ProgramId{0}), 1);
  }
}

// The paper's Global-LFU visibility rule, counted from scratch: what a
// neighborhood may see of `program` once accesses [0, upto) are recorded
// and the clock reads t.  Lag 0: the in-window count, time >= t - window.
// Lag > 0, with B the last multiple of lag <= t: accesses with time in
// [B - window, B) (an access exactly at B lands after the batch), plus the
// neighborhood's own accesses (`own[i]`) at or after B.
std::int64_t brute_force_visible(const std::vector<Access>& accesses,
                                 const std::vector<bool>& own,
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
    if (access.program != program) continue;
    if (!lagged || access.time < as_of) {
      count += access.time >= as_of - window ? 1 : 0;
    } else {
      count += own[i] ? 1 : 0;
    }
  }
  return count;
}

// Cross-validation of the replay view against the brute-force rule: a
// shard owning a random share of a non-decreasing access sequence must
// see the same counts at each of its session starts and at a boundary
// strictly between consecutive starts, live and lagged alike.
TEST(ReplayCursor, MatchesLiveBoardOverRandomSequence) {
  constexpr std::size_t kPrograms = 6;
  const auto window = sim::SimTime::hours(2);
  for (const std::uint64_t seed : {2026u, 1u, 2u, 3u}) {
    Rng rng(seed);
    std::vector<Access> accesses;
    std::vector<bool> own;
    sim::SimTime t;
    for (int i = 0; i < 300; ++i) {
      t += sim::SimTime::seconds(
          static_cast<std::int64_t>(rng.uniform_u64(600)));
      accesses.push_back({t, ProgramId{static_cast<std::uint32_t>(
                                 rng.uniform_u64(kPrograms))}});
      own.push_back(rng.uniform_u64(3) == 0);
    }

    for (const auto lag : {sim::SimTime{}, sim::SimTime::minutes(30)}) {
      const std::string repro = "repro: seed=" + std::to_string(seed) +
                                " lag_minutes=" +
                                std::to_string(lag.millis_count() / 60'000);
      const auto replay = frozen_board(kPrograms, window, lag, accesses);
      ReplayView view(*replay);
      const auto check = [&](std::size_t upto, sim::SimTime at,
                             const char* event) {
        for (std::uint32_t p = 0; p < kPrograms; ++p) {
          ASSERT_EQ(view.count(ProgramId{p}),
                    brute_force_visible(accesses, own, upto, ProgramId{p}, at,
                                        window, lag))
              << repro << " program " << p << " at " << event << " after "
              << upto << " accesses";
        }
      };
      for (std::size_t i = 0; i < accesses.size(); ++i) {
        if (own[i]) {
          view.on_session_start(i, accesses[i].program, accesses[i].time);
          check(i + 1, accesses[i].time, "a session start");
        }
        if (i + 1 < accesses.size() &&
            accesses[i + 1].time - accesses[i].time >
                sim::SimTime::millis(1)) {
          const auto mid = sim::SimTime::millis(
              (accesses[i].time.millis_count() +
               accesses[i + 1].time.millis_count()) / 2);
          view.on_boundary(mid);
          check(i + 1, mid, "a boundary");
        }
      }
    }
  }
}

// ------------------------------------------------------ ReplayBoard pieces
//
// The prepass chain seals the board piece by piece while shards read it.
// These cases pin that sealing changes no answer, and that a read past the
// sealed part fails loudly instead of racing the writer.

// A random access sequence with zero gaps (same-millisecond ties) and a
// skewed program mix, spanning about a day.
std::vector<Access> random_accesses(Rng& rng, std::uint32_t programs,
                                    int count) {
  std::vector<Access> accesses;
  sim::SimTime t = at_min(1);
  for (int i = 0; i < count; ++i) {
    if (rng.uniform_u64(4) != 0) {
      t += sim::SimTime::seconds(
          static_cast<std::int64_t>(rng.uniform_u64(300)));
    }
    const auto a = rng.uniform_u64(programs);
    const auto b = rng.uniform_u64(programs);
    accesses.push_back({t, ProgramId{static_cast<std::uint32_t>(
                               std::min(a, b))}});
  }
  return accesses;
}

// Adds accesses before `through` to `board`, from `added` on, and seals
// them.
void seal_through(ReplayBoard& board, const std::vector<Access>& accesses,
                  std::size_t& added, sim::SimTime through) {
  while (added < accesses.size() && accesses[added].time < through) {
    board.add(accesses[added].program, accesses[added].time);
    ++added;
  }
  board.seal(through);
}

// Random queries answerable from the first `sealed` entries, sealed
// through `through`: each must match the board frozen once.
void expect_same_answers(const ReplayBoard& pieces, const ReplayBoard& whole,
                         const std::vector<Access>& accesses,
                         std::uint32_t programs, std::size_t sealed,
                         sim::SimTime through, Rng& rng,
                         const std::string& repro) {
  ASSERT_EQ(pieces.size(), sealed) << repro;
  const auto time_upto = [&](sim::SimTime limit) {
    return sim::SimTime::millis(static_cast<std::int64_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(limit.millis_count()) + 1)));
  };
  const auto position_upto = [&](std::size_t limit) {
    return static_cast<std::size_t>(rng.uniform_u64(limit + 1));
  };
  for (int q = 0; q < 40; ++q) {
    const auto t = time_upto(through);
    const auto from = whole.first_at_or_after(time_upto(t), 0);
    ASSERT_EQ(pieces.first_at_or_after(t, from),
              whole.first_at_or_after(t, from))
        << repro << " first_at_or_after t_ms=" << t.millis_count()
        << " from=" << from;

    const ProgramId program{
        static_cast<std::uint32_t>(rng.uniform_u64(programs))};
    const auto to = position_upto(sealed);
    const auto low = position_upto(to);
    ASSERT_EQ(pieces.count_between(program, low, to),
              whole.count_between(program, low, to))
        << repro << " count_between program=" << program.value()
        << " from=" << low << " to=" << to;
    const auto hint = whole.slot_at_or_after(program, low);
    ASSERT_EQ(pieces.slot_at_or_after(program, to, hint),
              whole.slot_at_or_after(program, to, hint))
        << repro << " slot_at_or_after program=" << program.value()
        << " position=" << to << " from=" << hint;

    const auto slots = whole.slot_at_or_after(program, sealed);
    if (slots > 0) {
      const auto slot = static_cast<std::uint32_t>(rng.uniform_u64(slots));
      const auto position = pieces.position_of(program, slot, 0);
      ASSERT_EQ(position, whole.position_of(program, slot, 0))
          << repro << " position_of program=" << program.value()
          << " slot=" << slot;
      const auto after = position_upto(position);
      ASSERT_EQ(pieces.position_of(program, slot, after), position)
          << repro << " position_of program=" << program.value()
          << " slot=" << slot << " after=" << after;
      ASSERT_EQ(pieces.slot_at_or_after(program, position), slot) << repro;
    }
    if (sealed > 0) {
      const auto index = static_cast<std::size_t>(rng.uniform_u64(sealed));
      ASSERT_TRUE(pieces.holds(index, accesses[index].program,
                               accesses[index].time))
          << repro << " holds index=" << index;
    }
  }
}

TEST(ReplayBoardPieces, SealedPiecesAnswerLikeOneFrozenBoard) {
  constexpr std::uint32_t kPrograms = 9;
  const auto window = sim::SimTime::hours(2);
  const auto chunk = sim::SimTime::minutes(30);
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng(seed);
    const auto accesses = random_accesses(rng, kPrograms, 600);
    const auto whole =
        frozen_board(kPrograms, window, sim::SimTime{}, accesses);
    ReplayBoard pieces(kPrograms, window, sim::SimTime{});
    std::size_t added = 0;
    // Seal at a random share of the chunk grid, runs of several chunks
    // (empty pieces) included.
    sim::SimTime through = chunk;
    while (through <= accesses.back().time) {
      if (rng.uniform_u64(3) != 0) {
        seal_through(pieces, accesses, added, through);
        expect_same_answers(pieces, *whole, accesses, kPrograms, added,
                            through, rng,
                            "repro: ReplayBoardPieces seed=" +
                                std::to_string(seed) + " pieces=" +
                                std::to_string(pieces.piece_count()) +
                                " through_ms=" +
                                std::to_string(through.millis_count()));
        if (HasFatalFailure()) return;
      }
      through += chunk;
    }
    seal_through(pieces, accesses, added, through);
    pieces.freeze();
    ASSERT_GT(pieces.piece_count(), 10u);
    expect_same_answers(pieces, *whole, accesses, kPrograms, accesses.size(),
                        accesses.back().time + window, rng,
                        "repro: ReplayBoardPieces seed=" +
                            std::to_string(seed) + " frozen");
  }
}

// A shard replaying a board that is sealed only just far enough for each
// event — the prepass chain's lookahead of 0 — must name the same victims
// as one replaying the board frozen once, live and lagged.
TEST(ReplayBoardPieces, GlobalLfuVictimsMatchAcrossPieceCounts) {
  constexpr std::uint32_t kPrograms = 9;
  constexpr std::size_t kCapacity = 4;
  const auto window = sim::SimTime::hours(2);
  const auto chunk = sim::SimTime::minutes(30);
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    for (const auto lag : {sim::SimTime{}, sim::SimTime::hours(1)}) {
      Rng rng(seed);
      const auto accesses = random_accesses(rng, kPrograms, 600);
      std::vector<bool> own;
      for (std::size_t i = 0; i < accesses.size(); ++i) {
        own.push_back(rng.uniform_u64(3) == 0);
      }
      const auto whole = frozen_board(kPrograms, window, lag, accesses);
      ReplayBoard pieces(kPrograms, window, lag);
      std::size_t added = 0;
      ReplayView whole_view(*whole);
      ReplayView pieces_view(pieces);
      AccessHistory whole_history;
      AccessHistory pieces_history;
      GlobalLfuStrategy whole_cell(whole_history, whole_view);
      GlobalLfuStrategy pieces_cell(pieces_history, pieces_view);
      std::size_t events = 0;
      std::size_t victims = 0;

      // Seals the chunk holding t, and sometimes a few more.
      const auto reach = [&](sim::SimTime t) {
        if (t < pieces.sealed_through()) return;
        const auto chunks = t.millis_count() / chunk.millis_count() + 1 +
                            static_cast<std::int64_t>(rng.uniform_u64(3));
        seal_through(pieces, accesses, added,
                     sim::SimTime::millis(chunks * chunk.millis_count()));
      };
      const auto compare = [&](sim::SimTime at) {
        const std::string repro =
            "repro: ReplayBoardPieces seed=" + std::to_string(seed) +
            " lag_minutes=" + std::to_string(lag.millis_count() / 60'000) +
            " event=" + std::to_string(events) +
            " pieces=" + std::to_string(pieces.piece_count()) +
            " at_ms=" + std::to_string(at.millis_count());
        ++events;
        for (std::uint32_t p = 0; p < kPrograms; ++p) {
          ASSERT_EQ(pieces_cell.score(ProgramId{p}, at),
                    whole_cell.score(ProgramId{p}, at))
              << repro << " program=" << p;
        }
        const auto victim = whole_cell.victim(at);
        ASSERT_EQ(pieces_cell.victim(at), victim) << repro;
        const ProgramId incoming{
            static_cast<std::uint32_t>(rng.uniform_u64(kPrograms))};
        if (whole_cell.is_cached(incoming)) return;
        if (whole_cell.cached_count() == kCapacity) {
          whole_cell.on_evict(*victim);
          pieces_cell.on_evict(*victim);
          ++victims;
        }
        whole_cell.on_admit(incoming, at);
        pieces_cell.on_admit(incoming, at);
      };

      for (std::size_t i = 0; i < accesses.size(); ++i) {
        const auto [at, program] = accesses[i];
        if (own[i]) {
          reach(at);
          whole_view.on_session_start(i, program, at);
          pieces_view.on_session_start(i, program, at);
          whole_history.record(program, at);
          pieces_history.record(program, at);
          compare(at);
          if (HasFatalFailure()) return;
        }
        if (i + 1 < accesses.size() && accesses[i + 1].time > at) {
          const auto next = accesses[i + 1].time;
          reach(next);
          whole_view.on_boundary(next);
          pieces_view.on_boundary(next);
          compare(next);
          if (HasFatalFailure()) return;
        }
      }
      EXPECT_GT(pieces.piece_count(), 10u);
      EXPECT_GT(victims, 20u);
    }
  }
}

// A missing seal edge reads past the sealed part: every such read is a
// precondition failure, not a read of entries still being written.
TEST(ReplayBoardPiecesDeathTest, ReadPastTheSealAborts) {
  ReplayBoard board(3, sim::SimTime::hours(1), sim::SimTime{});
  board.add(ProgramId{1}, at_min(0));
  board.add(ProgramId{2}, at_min(10));
  board.seal(at_min(30));
  board.add(ProgramId{1}, at_min(40));

  // Up to the seal, reads are answered.
  EXPECT_EQ(board.first_at_or_after(at_min(30), 0), 2u);
  EXPECT_EQ(board.slot_at_or_after(ProgramId{1}, 2), 1u);
  EXPECT_EQ(board.position_of(ProgramId{1}, 0, 0), 0u);
  EXPECT_TRUE(board.holds(1, ProgramId{2}, at_min(10)));

  EXPECT_DEATH((void)board.first_at_or_after(at_min(31), 0), "precondition");
  EXPECT_DEATH((void)board.slot_at_or_after(ProgramId{1}, 3), "precondition");
  EXPECT_DEATH((void)board.count_between(ProgramId{1}, 0, 3), "precondition");
  EXPECT_DEATH((void)board.position_of(ProgramId{1}, 1, 0), "precondition");
  EXPECT_DEATH((void)board.holds(2, ProgramId{1}, at_min(40)),
               "precondition");
  ReplayView view(board);
  EXPECT_DEATH(view.on_boundary(at_min(31)), "precondition");

  // Nothing sealed: nothing is answered.
  ReplayBoard empty(3, sim::SimTime::hours(1), sim::SimTime{});
  EXPECT_DEATH((void)empty.first_at_or_after(at_min(0), 0), "precondition");
}

// ------------------------------------------------------- GlobalLFU, replay

// One session start as a shard runs it: the view first, then the
// history, then the cell.
void start(ReplayView& view, AccessHistory& history,
           GlobalLfuStrategy& cell, std::size_t index, ProgramId program,
           sim::SimTime t) {
  view.on_session_start(index, program, t);
  access(history, cell, program, t);
}

TEST(GlobalLfuReplay, SeesAccessesFromOtherNeighborhoods) {
  std::vector<Access> accesses;
  for (int i = 0; i < 5; ++i) accesses.push_back({at_min(i), ProgramId{1}});
  accesses.push_back({at_min(6), ProgramId{2}});
  const auto board =
      frozen_board(4, sim::SimTime::hours(24), sim::SimTime{}, accesses);

  ReplayView view_a(*board), view_b(*board);
  AccessHistory history_a, history_b;
  GlobalLfuStrategy a(history_a, view_a);
  GlobalLfuStrategy b(history_b, view_b);

  // Neighborhood A sees lots of program 1; B has never seen it locally.
  for (std::size_t i = 0; i < 5; ++i) {
    start(view_a, history_a, a, i, ProgramId{1}, at_min(static_cast<std::int64_t>(i)));
  }
  start(view_b, history_b, b, 5, ProgramId{2}, at_min(6));
  // B's scoring still ranks 1 above 2 thanks to global data.
  view_b.on_boundary(at_min(7));
  EXPECT_GT(b.score(ProgramId{1}, at_min(7)), b.score(ProgramId{2}, at_min(7)));
}

TEST(GlobalLfuReplay, ReranksRemoteCachedPrograms) {
  std::vector<Access> accesses{{at_min(0), ProgramId{1}},
                                            {at_min(1), ProgramId{2}},
                                            {at_min(1), ProgramId{2}}};
  for (int i = 0; i < 4; ++i) accesses.push_back({at_min(3), ProgramId{1}});
  const auto board =
      frozen_board(4, sim::SimTime::hours(24), sim::SimTime{}, accesses);

  ReplayView view_a(*board), view_b(*board);
  AccessHistory history_a, history_b;
  GlobalLfuStrategy a(history_a, view_a);
  GlobalLfuStrategy b(history_b, view_b);

  start(view_b, history_b, b, 0, ProgramId{1}, at_min(0));
  b.on_admit(ProgramId{1}, at_min(0));
  start(view_b, history_b, b, 1, ProgramId{2}, at_min(1));
  start(view_b, history_b, b, 2, ProgramId{2}, at_min(1));
  b.on_admit(ProgramId{2}, at_min(1));
  view_b.on_boundary(at_min(2));
  EXPECT_EQ(b.victim(at_min(2)), ProgramId{1});

  // A's traffic boosts program 1 globally; B's victim flips to 2 without B
  // seeing any local access.
  for (std::size_t i = 0; i < 4; ++i) {
    start(view_a, history_a, a, 3 + i, ProgramId{1}, at_min(3));
  }
  view_b.on_boundary(at_min(4));
  EXPECT_EQ(b.victim(at_min(4)), ProgramId{2});
}

TEST(GlobalLfuReplay, ExpiringRemoteAccessDropsCachedRank) {
  // Program 1 leads on two remote accesses (neighborhood A's, t=0 and 1);
  // once they leave the one-hour window, B's own two accesses of program
  // 2 outrank its one of program 1.
  const auto board = frozen_board(4, sim::SimTime::hours(1), sim::SimTime{},
                                  {{at_min(0), ProgramId{1}},
                                   {at_min(1), ProgramId{1}},
                                   {at_min(10), ProgramId{2}},
                                   {at_min(11), ProgramId{2}},
                                   {at_min(12), ProgramId{1}}});
  ReplayView view(*board);
  AccessHistory history;
  GlobalLfuStrategy b(history, view);
  start(view, history, b, 2, ProgramId{2}, at_min(10));
  b.on_admit(ProgramId{2}, at_min(10));
  start(view, history, b, 3, ProgramId{2}, at_min(11));
  start(view, history, b, 4, ProgramId{1}, at_min(12));
  b.on_admit(ProgramId{1}, at_min(12));
  view.on_boundary(at_min(30));
  EXPECT_EQ(b.victim(at_min(30)), ProgramId{2});

  const auto later = at_min(61) + sim::SimTime::seconds(30);
  view.on_boundary(later);
  EXPECT_EQ(b.score(ProgramId{1}, later).first, 1);
  EXPECT_EQ(b.victim(later), ProgramId{1});
}

// Two live GlobalLFU cells on one view and one history, as a shard's
// shadow matrix runs them.  One asks for a victim at every event; the other
// only every 25 events, after many view moves with expiries among them.
// Both must name the victim a fresh re-score of every cached program names.
TEST(GlobalLfuReplay, CellsRefreshingAtAnyPaceNameTheFreshVictim) {
  constexpr std::uint32_t kPrograms = 8;
  constexpr std::size_t kLazyEvery = 25;
  const auto window = sim::SimTime::hours(1);
  Rng rng(23);
  std::vector<Access> accesses;
  std::vector<bool> own;
  sim::SimTime t = at_min(1);
  for (int i = 0; i < 400; ++i) {
    t += sim::SimTime::seconds(static_cast<std::int64_t>(rng.uniform_u64(300)));
    accesses.push_back(
        {t, ProgramId{static_cast<std::uint32_t>(rng.uniform_u64(kPrograms))}});
    own.push_back(rng.uniform_u64(4) == 0);
  }
  const auto board = frozen_board(kPrograms, window, sim::SimTime{}, accesses);

  ReplayView view(*board);
  AccessHistory history;
  GlobalLfuStrategy eager(history, view);
  GlobalLfuStrategy lazy(history, view);
  // Every program but the last is cached in both cells from the start.
  for (std::uint32_t p = 0; p + 1 < kPrograms; ++p) {
    eager.on_admit(ProgramId{p}, at_min(0));
    lazy.on_admit(ProgramId{p}, at_min(0));
  }

  const auto fresh_victim = [&](sim::SimTime at) {
    std::optional<std::pair<Score, std::uint32_t>> best;
    for (std::uint32_t p = 0; p + 1 < kPrograms; ++p) {
      const std::pair<Score, std::uint32_t> entry{
          eager.score(ProgramId{p}, at), p};
      if (!best || entry < *best) best = entry;
    }
    return ProgramId{best->second};
  };

  std::vector<std::int64_t> counts(kPrograms, 0);
  bool expired_since_lazy = false;
  std::size_t lazy_checks_after_expiry = 0;
  std::size_t events = 0;
  const auto after_event = [&](sim::SimTime at) {
    for (std::uint32_t p = 0; p < kPrograms; ++p) {
      const std::int64_t now = view.count(ProgramId{p});
      if (now < counts[p]) expired_since_lazy = true;
      counts[p] = now;
    }
    ASSERT_EQ(eager.victim(at), fresh_victim(at)) << "event " << events;
    if (++events % kLazyEvery == 0) {
      ASSERT_EQ(lazy.victim(at), fresh_victim(at)) << "event " << events;
      if (expired_since_lazy) ++lazy_checks_after_expiry;
      expired_since_lazy = false;
    }
  };

  for (std::size_t i = 0; i < accesses.size(); ++i) {
    if (own[i]) {
      const auto [at, program] = accesses[i];
      view.on_session_start(i, program, at);
      history.record(program, at);
      eager.on_access(program, at);
      lazy.on_access(program, at);
      after_event(at);
    }
    if (i + 1 < accesses.size() &&
        accesses[i + 1].time - accesses[i].time > sim::SimTime::millis(1)) {
      const auto mid = accesses[i].time + sim::SimTime::millis(1);
      view.on_boundary(mid);
      after_event(mid);
    }
  }
  EXPECT_GT(lazy_checks_after_expiry, 0u);
}

// Brute-force property: three neighborhoods replay one random access
// sequence, each through its own view, one history and two GlobalLFU
// cells.  One cell is checked at every event, the other only every few
// events, so its refresh spans many view moves.  At each check, every
// cached program's score must equal a count made by scanning every access
// at the event's (time, global index) cut, and the victim must be the
// cheapest cached program by those counts.  A third of the gaps are zero,
// and some accesses are repeated at the same millisecond from a second
// neighborhood, so ties resolve by global index.
TEST(GlobalLfuReplay, CachedScoresMatchBruteForceCounts) {
  constexpr std::uint32_t kPrograms = 7;
  constexpr std::uint32_t kShards = 3;
  constexpr std::size_t kCapacity = 4;
  constexpr std::size_t kLazyEvery = 7;
  const auto window = sim::SimTime::hours(1);
  for (const std::uint64_t seed : {5u, 6u, 7u, 8u}) {
    Rng rng(seed);
    std::vector<Access> accesses;
    std::vector<std::uint32_t> owner;
    sim::SimTime t = at_min(1);
    std::size_t same_ms_pairs = 0;
    for (int i = 0; i < 500; ++i) {
      if (rng.uniform_u64(3) != 0) {
        t += sim::SimTime::seconds(
            static_cast<std::int64_t>(rng.uniform_u64(240)));
      }
      const ProgramId program{
          static_cast<std::uint32_t>(rng.uniform_u64(kPrograms))};
      const auto shard = static_cast<std::uint32_t>(rng.uniform_u64(kShards));
      accesses.push_back({t, program});
      owner.push_back(shard);
      if (rng.uniform_u64(6) == 0) {
        accesses.push_back({t, program});
        owner.push_back(
            (shard + 1 + static_cast<std::uint32_t>(
                             rng.uniform_u64(kShards - 1))) % kShards);
        ++same_ms_pairs;
      }
    }
    ASSERT_GT(same_ms_pairs, 0u);

    for (const auto lag : {sim::SimTime{}, sim::SimTime::minutes(30)}) {
      const auto board = frozen_board(kPrograms, window, lag, accesses);
      for (std::uint32_t s = 0; s < kShards; ++s) {
        std::vector<bool> own(accesses.size());
        for (std::size_t i = 0; i < accesses.size(); ++i) {
          own[i] = owner[i] == s;
        }
        ReplayView view(*board);
        AccessHistory history;
        GlobalLfuStrategy eager(history, view);
        GlobalLfuStrategy lazy(history, view);
        Rng actions(seed * 31 + s);
        std::size_t events = 0;

        const auto check = [&](GlobalLfuStrategy& cell, const char* name,
                               std::size_t upto, sim::SimTime at) {
          const std::string repro =
              "repro: seed=" + std::to_string(seed) + " lag_minutes=" +
              std::to_string(lag.millis_count() / 60'000) +
              " shard=" + std::to_string(s) + " cell=" + name +
              " event=" + std::to_string(events) +
              " upto=" + std::to_string(upto) +
              " at_ms=" + std::to_string(at.millis_count());
          std::optional<std::pair<Score, std::uint32_t>> cheapest;
          for (std::uint32_t p = 0; p < kPrograms; ++p) {
            if (!cell.is_cached(ProgramId{p})) continue;
            const std::int64_t count = brute_force_visible(
                accesses, own, upto, ProgramId{p}, at, window, lag);
            ASSERT_EQ(cell.score(ProgramId{p}, at).first, count)
                << repro << " program=" << p;
            const std::pair<Score, std::uint32_t> entry{
                {count, history.recency(ProgramId{p})}, p};
            if (!cheapest || entry < *cheapest) cheapest = entry;
          }
          const auto victim = cell.victim(at);
          ASSERT_EQ(victim.has_value(), cheapest.has_value()) << repro;
          if (victim) {
            ASSERT_EQ(*victim, ProgramId{cheapest->second}) << repro;
          }
          // Admit a random program, evicting the victim when full.
          const ProgramId incoming{
              static_cast<std::uint32_t>(actions.uniform_u64(kPrograms))};
          if (actions.uniform_u64(2) == 0 || cell.is_cached(incoming)) return;
          if (cell.cached_count() == kCapacity) cell.on_evict(*victim);
          cell.on_admit(incoming, at);
        };
        const auto after_event = [&](std::size_t upto, sim::SimTime at) {
          check(eager, "eager", upto, at);
          if (++events % kLazyEvery == 0) check(lazy, "lazy", upto, at);
        };

        for (std::size_t i = 0; i < accesses.size(); ++i) {
          if (own[i]) {
            const auto [at, program] = accesses[i];
            view.on_session_start(i, program, at);
            history.record(program, at);
            eager.on_access(program, at);
            lazy.on_access(program, at);
            after_event(i + 1, at);
            if (HasFatalFailure()) return;
          }
          // A boundary runs before every session start at its own time,
          // so it may fall anywhere in (t_i, t_{i+1}], the far end
          // included.
          if (i + 1 < accesses.size() &&
              accesses[i + 1].time > accesses[i].time &&
              actions.uniform_u64(2) == 0) {
            const std::int64_t gap_ms = (accesses[i + 1].time -
                                         accesses[i].time).millis_count();
            const auto at =
                actions.uniform_u64(3) == 0
                    ? accesses[i + 1].time
                    : accesses[i].time +
                          sim::SimTime::millis(
                              1 + static_cast<std::int64_t>(
                                      actions.uniform_u64(
                                          static_cast<std::uint64_t>(gap_ms))));
            view.on_boundary(at);
            after_event(i + 1, at);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(GlobalLfuReplay, LaggedModeAugmentsSnapshotWithLocal) {
  const auto board = frozen_board(4, sim::SimTime::hours(24),
                                  /*lag=*/sim::SimTime::minutes(30),
                                  {{at_min(1), ProgramId{1}},
                                   {at_min(2), ProgramId{1}},
                                   {at_min(3), ProgramId{2}}});

  ReplayView view_a(*board), view_b(*board);
  AccessHistory history_a, history_b;
  GlobalLfuStrategy a(history_a, view_a);
  GlobalLfuStrategy b(history_b, view_b);

  // Before any batch: A's local accesses count for A but not for B.
  start(view_a, history_a, a, 0, ProgramId{1}, at_min(1));
  start(view_a, history_a, a, 1, ProgramId{1}, at_min(2));
  start(view_b, history_b, b, 2, ProgramId{2}, at_min(3));

  view_a.on_boundary(at_min(4));
  view_b.on_boundary(at_min(4));
  EXPECT_EQ(a.score(ProgramId{1}, at_min(4)).first, 2);
  EXPECT_EQ(b.score(ProgramId{1}, at_min(4)).first, 0);
  EXPECT_EQ(b.score(ProgramId{2}, at_min(4)).first, 1);

  // After the batch, B sees A's traffic, and its own access counts once.
  view_b.on_boundary(at_min(31));
  EXPECT_EQ(b.score(ProgramId{1}, at_min(31)).first, 2);
  EXPECT_EQ(b.score(ProgramId{2}, at_min(31)).first, 1);
}

}  // namespace
}  // namespace vodcache::cache
