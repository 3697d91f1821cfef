// Unit tests for SegmentStore: placement balance, capacity accounting,
// replicas, whole-program eviction.  Segment sizes come from the catalog,
// so each case builds a small catalog whose program lengths give it the
// sizes it needs.
#include <gtest/gtest.h>

#include <vector>

#include "cache/segment_store.hpp"

namespace vodcache::cache {
namespace {

// At 8 Mb/s a second of program is 1 MB, and a full 5-minute segment is
// kSeg; at 16 Mb/s a second is 2 MB.
const auto k8Mbps = DataRate::megabits_per_second(8.0);
const auto k16Mbps = DataRate::megabits_per_second(16.0);
constexpr auto kSeg = DataSize::megabytes(300);

// Programs 0, 1, ... of the given lengths in seconds.
trace::Catalog lengths(std::vector<std::int64_t> seconds) {
  std::vector<trace::ProgramInfo> programs(seconds.size());
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    programs[i].length = sim::SimTime::seconds(seconds[i]);
  }
  return trace::Catalog(std::move(programs));
}

TEST(SegmentStore, CapacityIsSumOfContributions) {
  const auto catalog = lengths({300});
  const SegmentStore store(10, DataSize::gigabytes(10), catalog, k8Mbps);
  EXPECT_EQ(store.capacity(), DataSize::gigabytes(100));
  EXPECT_EQ(store.used(), DataSize{});
  EXPECT_EQ(store.free_space(), DataSize::gigabytes(100));
  EXPECT_EQ(store.peer_count(), 10u);
}

TEST(SegmentStore, StoreAndLocate) {
  const auto catalog = lengths({300, 300});
  SegmentStore store(4, DataSize::gigabytes(1), catalog, k8Mbps);
  const SegmentKey key{ProgramId{1}, 0};
  EXPECT_TRUE(store.locate(key).empty());
  const auto peer = store.store(key);
  ASSERT_TRUE(peer.has_value());
  ASSERT_EQ(store.locate(key).size(), 1u);
  EXPECT_EQ(store.locate(key)[0], *peer);
  EXPECT_EQ(store.used(), kSeg);
  EXPECT_EQ(store.peer_used(*peer), kSeg);
}

TEST(SegmentStore, PlacementBalancesAcrossPeers) {
  const auto catalog = lengths({300, 8 * 300});
  SegmentStore store(4, DataSize::gigabytes(1), catalog, k8Mbps);
  // 8 segments over 4 peers: max-free placement gives exactly 2 each.
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(store.store({ProgramId{1}, i}).has_value());
  }
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(store.peer_used(PeerId{p}), kSeg * 2);
  }
}

TEST(SegmentStore, UnevenSegmentSizesStillBalance) {
  // 600 MB, then two 100 MB programs.
  const auto catalog = lengths({300, 300, 50, 50});
  SegmentStore store(2, DataSize::gigabytes(1), catalog, k16Mbps);
  ASSERT_TRUE(store.store({ProgramId{1}, 0}));
  // Next goes to the emptier peer.
  const auto second = store.store({ProgramId{2}, 0});
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(store.locate({ProgramId{1}, 0})[0], *second);
  EXPECT_EQ(store.peer_used(*second), DataSize::megabytes(100));
  // And the next again to the (still) emptier one.
  const auto third = store.store({ProgramId{3}, 0});
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(*third, *second);
}

TEST(SegmentStore, RefusesWhenNoPeerFits) {
  // Two 400 MB programs, then a 150 MB one.
  const auto catalog = lengths({300, 200, 200, 75});
  SegmentStore store(2, DataSize::megabytes(500), catalog, k16Mbps);
  ASSERT_TRUE(store.store({ProgramId{1}, 0}));
  ASSERT_TRUE(store.store({ProgramId{2}, 0}));
  // 200 MB free in total but only 100 MB on each peer: a 150 MB segment
  // cannot be placed even though aggregate free space suffices.
  EXPECT_EQ(store.store({ProgramId{3}, 0}), std::nullopt);
  EXPECT_TRUE(store.locate({ProgramId{3}, 0}).empty());
  EXPECT_EQ(store.used(), DataSize::megabytes(800));
}

TEST(SegmentStore, EvictProgramFreesEverything) {
  // Program 7: five full segments and a 100 s last one.
  std::vector<std::int64_t> seconds(9, 300);
  seconds[7] = 5 * 300 + 100;
  const auto catalog = lengths(seconds);
  SegmentStore store(4, DataSize::gigabytes(1), catalog, k8Mbps);
  for (std::uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.store({ProgramId{7}, i}).has_value());
  }
  ASSERT_TRUE(store.store({ProgramId{8}, 0}).has_value());
  EXPECT_EQ(store.used(), kSeg * 6 + DataSize::megabytes(100));
  const auto freed = store.evict_program(ProgramId{7});
  EXPECT_EQ(freed, kSeg * 5 + DataSize::megabytes(100));
  EXPECT_EQ(store.used(), kSeg);
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(store.locate({ProgramId{7}, i}).empty()) << i;
  }
  EXPECT_FALSE(store.locate({ProgramId{8}, 0}).empty());
}

TEST(SegmentStore, EvictAbsentProgramIsNoOp) {
  const auto catalog = lengths({300});
  SegmentStore store(2, DataSize::gigabytes(1), catalog, k8Mbps);
  EXPECT_EQ(store.evict_program(ProgramId{99}), DataSize{});
}

TEST(SegmentStore, EvictionReleasesPlacementPressure) {
  // Two 400 MB programs.
  const auto catalog = lengths({300, 200, 200});
  SegmentStore store(1, DataSize::megabytes(600), catalog, k16Mbps);
  ASSERT_TRUE(store.store({ProgramId{1}, 0}));
  EXPECT_EQ(store.store({ProgramId{2}, 0}), std::nullopt);
  store.evict_program(ProgramId{1});
  EXPECT_TRUE(store.store({ProgramId{2}, 0}));
}

TEST(SegmentStore, ReplicasGoToDistinctPeers) {
  const auto catalog = lengths({300, 300});
  SegmentStore store(3, DataSize::gigabytes(1), catalog, k8Mbps);
  const SegmentKey key{ProgramId{1}, 0};
  const auto first = store.store(key);
  const auto second = store.store(key);
  const auto third = store.store(key);
  ASSERT_TRUE(first && second && third);
  EXPECT_NE(*first, *second);
  EXPECT_NE(*second, *third);
  EXPECT_NE(*first, *third);
  EXPECT_EQ(store.locate(key).size(), 3u);
  EXPECT_EQ(store.used(), kSeg * 3);  // the three replicas, nothing else
}

TEST(SegmentStore, ReplicaRefusedWhenAllPeersHoldOne) {
  const auto catalog = lengths({300, 300});
  SegmentStore store(2, DataSize::gigabytes(1), catalog, k8Mbps);
  const SegmentKey key{ProgramId{1}, 0};
  ASSERT_TRUE(store.store(key));
  ASSERT_TRUE(store.store(key));
  EXPECT_EQ(store.store(key), std::nullopt);
  EXPECT_EQ(store.locate(key).size(), 2u);
}

TEST(SegmentStore, EvictProgramDropsAllReplicas) {
  const auto catalog = lengths({300, 300});
  SegmentStore store(3, DataSize::gigabytes(1), catalog, k8Mbps);
  const SegmentKey key{ProgramId{1}, 0};
  ASSERT_TRUE(store.store(key));
  ASSERT_TRUE(store.store(key));
  const auto freed = store.evict_program(ProgramId{1});
  EXPECT_EQ(freed, kSeg * 2);
  EXPECT_TRUE(store.locate(key).empty());
  EXPECT_EQ(store.used(), DataSize{});
}

TEST(SegmentStore, ProgramBytesSumsSegmentsAndReplicas) {
  // Program 1: a full segment and a 100 s last one.
  const auto catalog = lengths({300, 400, 300});
  SegmentStore store(4, DataSize::gigabytes(1), catalog, k8Mbps);
  ASSERT_TRUE(store.store({ProgramId{1}, 0}));
  ASSERT_TRUE(store.store({ProgramId{1}, 1}));
  ASSERT_TRUE(store.store({ProgramId{1}, 0}));  // replica
  // Program 1 is all the store holds: two segments, one of them twice.
  EXPECT_EQ(store.used(), kSeg * 2 + DataSize::megabytes(100));
  EXPECT_EQ(store.locate({ProgramId{1}, 0}).size(), 2u);
  EXPECT_EQ(store.locate({ProgramId{1}, 1}).size(), 1u);
  EXPECT_TRUE(store.locate({ProgramId{2}, 0}).empty());
}

TEST(SegmentStore, StoredProgramsLists) {
  const auto catalog = lengths(std::vector<std::int64_t>(8, 300));
  SegmentStore store(4, DataSize::gigabytes(1), catalog, k8Mbps);
  ASSERT_TRUE(store.store({ProgramId{1}, 0}));
  ASSERT_TRUE(store.store({ProgramId{5}, 0}));
  for (std::uint32_t p = 0; p < 8; ++p) {
    EXPECT_EQ(store.locate({ProgramId{p}, 0}).empty(), p != 1 && p != 5) << p;
  }
}

TEST(SegmentStore, SecondReplicaSpillsAnInlineSlot) {
  // Program 1 is one 200 s segment.
  const auto catalog = lengths({300, 200});
  const auto size = DataSize::megabytes(200);
  SegmentStore store(3, DataSize::gigabytes(1), catalog, k8Mbps);
  const SegmentKey key{ProgramId{1}, 0};
  const auto first = store.store(key);
  ASSERT_TRUE(first);
  ASSERT_EQ(store.locate(key).size(), 1u);
  EXPECT_EQ(store.locate(key)[0], *first);
  // The second replica moves the inline one into the arena, first.
  const auto second = store.store(key);
  ASSERT_TRUE(second);
  const auto replicas = store.locate(key);
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_EQ(replicas[0], *first);
  EXPECT_EQ(replicas[1], *second);
  EXPECT_EQ(store.peer_used(*first), size);
  EXPECT_EQ(store.peer_used(*second), size);
  EXPECT_EQ(store.used(), size * 2);
  EXPECT_EQ(store.evict_program(ProgramId{1}), size * 2);
  EXPECT_EQ(store.used(), DataSize{});
}

TEST(SegmentStore, WipeOfOneOfTwoReplicasKeepsTheSurvivor) {
  const auto catalog = lengths({300, 300});
  SegmentStore store(3, DataSize::gigabytes(1), catalog, k8Mbps);
  const SegmentKey key{ProgramId{1}, 0};
  const auto first = store.store(key);
  const auto second = store.store(key);
  ASSERT_TRUE(first && second);
  const auto wiped = store.wipe_peer(*first);
  EXPECT_EQ(wiped.freed, kSeg);
  EXPECT_TRUE(wiped.emptied_programs.empty());
  ASSERT_EQ(store.locate(key).size(), 1u);
  EXPECT_EQ(store.locate(key)[0], *second);
  EXPECT_EQ(store.used(), kSeg);
  // The survivor's wipe empties the program.
  const auto last = store.wipe_peer(*second);
  EXPECT_EQ(last.freed, kSeg);
  EXPECT_EQ(last.emptied_programs, std::vector<ProgramId>{ProgramId{1}});
  EXPECT_TRUE(store.locate(key).empty());
  EXPECT_EQ(store.used(), DataSize{});
}

TEST(SegmentStore, SizeOver32BitsStaysExact) {
  // At 20 Mb/s a full segment is 6e9 bits, past 2^32.  Program 4's last
  // segment, 214.749 s, is just over 2^32 bits; program 5, 214.748 s,
  // just under.
  const auto rate = DataRate::megabits_per_second(20.0);
  std::vector<trace::ProgramInfo> programs(6);
  for (auto& program : programs) program.length = sim::SimTime::minutes(5);
  programs[4].length = sim::SimTime::millis(300'000 + 214'749);
  programs[5].length = sim::SimTime::millis(214'748);
  const trace::Catalog catalog(std::move(programs));
  const auto full = DataSize::bits(6'000'000'000);
  const auto wide = DataSize::bits(4'294'980'000);
  const auto narrow = DataSize::bits(4'294'960'000);
  ASSERT_GT(wide.bit_count(), std::int64_t{1} << 32);
  ASSERT_LT(narrow.bit_count(), std::int64_t{1} << 32);

  SegmentStore store(3, DataSize::gigabytes(2), catalog, rate);
  const SegmentKey key{ProgramId{4}, 1};
  const auto peer = store.store(key);
  ASSERT_TRUE(peer);
  ASSERT_EQ(store.locate(key).size(), 1u);
  EXPECT_EQ(store.locate(key)[0], *peer);
  EXPECT_EQ(store.used(), wide);
  EXPECT_EQ(store.peer_used(*peer), wide);
  // The full segment goes beside it on another peer, and the narrow one
  // on the third.
  const auto other = store.store({ProgramId{4}, 0});
  ASSERT_TRUE(other);
  EXPECT_NE(*other, *peer);
  EXPECT_EQ(store.peer_used(*other), full);
  const auto third = store.store({ProgramId{5}, 0});
  ASSERT_TRUE(third);
  EXPECT_EQ(store.peer_used(*third), narrow);
  EXPECT_EQ(store.used(), wide + full + narrow);
  EXPECT_EQ(store.evict_program(ProgramId{4}), wide + full);
  EXPECT_EQ(store.peer_used(*peer), DataSize{});
  EXPECT_EQ(store.wipe_peer(*third).freed, narrow);
  EXPECT_EQ(store.used(), DataSize{});
}

TEST(SegmentStore, ManyOperationsPreserveAccounting) {
  // 100 programs of four segments, the last one 1 s to 300 s long.
  std::vector<std::int64_t> seconds(100);
  for (std::size_t p = 0; p < seconds.size(); ++p) {
    seconds[p] = 3 * 300 + 1 + static_cast<std::int64_t>(p * 37 % 300);
  }
  const auto catalog = lengths(seconds);
  SegmentStore store(8, DataSize::gigabytes(2), catalog, k8Mbps);
  // Interleave stores and evictions, then check global accounting.
  for (std::uint32_t round = 0; round < 20; ++round) {
    for (std::uint32_t p = 0; p < 5; ++p) {
      for (std::uint32_t s = 0; s < 4; ++s) {
        (void)store.store({ProgramId{round * 5 + p}, s});
      }
    }
    store.evict_program(ProgramId{round * 5});
    store.evict_program(ProgramId{round * 5 + 3});
  }
  DataSize by_peers;
  for (std::uint32_t p = 0; p < 8; ++p) by_peers += store.peer_used(PeerId{p});
  EXPECT_EQ(by_peers, store.used());
  EXPECT_LE(store.used(), store.capacity());
  // Peer fill stays balanced: no peer holds more than twice the mean.
  const double mean_bits =
      static_cast<double>(store.used().bit_count()) / 8.0;
  for (std::uint32_t p = 0; p < 8; ++p) {
    EXPECT_LE(store.peer_used(PeerId{p}).bit_count(), 2.0 * mean_bits + kSeg.bit_count());
  }
}

}  // namespace
}  // namespace vodcache::cache
