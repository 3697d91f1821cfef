// Unit tests for SegmentStore: placement balance, capacity accounting,
// replicas, whole-program eviction.
#include <gtest/gtest.h>

#include <vector>

#include "cache/segment_store.hpp"

namespace vodcache::cache {
namespace {

constexpr auto kSeg = DataSize::megabytes(300);  // ~one 5-minute segment

SegmentStore make_store(std::uint32_t peers, DataSize per_peer) {
  return SegmentStore(std::vector<DataSize>(peers, per_peer));
}

TEST(SegmentStore, CapacityIsSumOfContributions) {
  const auto store = make_store(10, DataSize::gigabytes(10));
  EXPECT_EQ(store.capacity(), DataSize::gigabytes(100));
  EXPECT_EQ(store.used(), DataSize{});
  EXPECT_EQ(store.free_space(), DataSize::gigabytes(100));
  EXPECT_EQ(store.peer_count(), 10u);
}

TEST(SegmentStore, StoreAndLocate) {
  auto store = make_store(4, DataSize::gigabytes(1));
  const SegmentKey key{ProgramId{1}, 0};
  EXPECT_TRUE(store.locate(key).empty());
  const auto peer = store.store(key, kSeg);
  ASSERT_TRUE(peer.has_value());
  ASSERT_EQ(store.locate(key).size(), 1u);
  EXPECT_EQ(store.locate(key)[0], *peer);
  EXPECT_EQ(store.used(), kSeg);
  EXPECT_EQ(store.peer_used(*peer), kSeg);
}

TEST(SegmentStore, PlacementBalancesAcrossPeers) {
  auto store = make_store(4, DataSize::gigabytes(1));
  // 8 segments over 4 peers: max-free placement gives exactly 2 each.
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(store.store({ProgramId{1}, i}, kSeg).has_value());
  }
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(store.peer_used(PeerId{p}), kSeg * 2);
  }
}

TEST(SegmentStore, UnevenSegmentSizesStillBalance) {
  auto store = make_store(2, DataSize::gigabytes(1));
  ASSERT_TRUE(store.store({ProgramId{1}, 0}, DataSize::megabytes(600)));
  // Next goes to the emptier peer.
  const auto second = store.store({ProgramId{1}, 1}, DataSize::megabytes(100));
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(store.locate({ProgramId{1}, 0})[0], *second);
  // And the next again to the (still) emptier one.
  const auto third = store.store({ProgramId{1}, 2}, DataSize::megabytes(100));
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(*third, *second);
}

TEST(SegmentStore, RefusesWhenNoPeerFits) {
  auto store = make_store(2, DataSize::megabytes(500));
  ASSERT_TRUE(store.store({ProgramId{1}, 0}, DataSize::megabytes(400)));
  ASSERT_TRUE(store.store({ProgramId{1}, 1}, DataSize::megabytes(400)));
  // 200 MB free in total but only 100 MB on each peer: a 150 MB segment
  // cannot be placed even though aggregate free space suffices.
  EXPECT_EQ(store.store({ProgramId{1}, 2}, DataSize::megabytes(150)),
            std::nullopt);
  EXPECT_TRUE(store.locate({ProgramId{1}, 2}).empty());
}

TEST(SegmentStore, EvictProgramFreesEverything) {
  auto store = make_store(4, DataSize::gigabytes(1));
  for (std::uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.store({ProgramId{7}, i}, kSeg).has_value());
  }
  ASSERT_TRUE(store.store({ProgramId{8}, 0}, kSeg).has_value());
  const auto freed = store.evict_program(ProgramId{7});
  EXPECT_EQ(freed, kSeg * 6);
  EXPECT_EQ(store.used(), kSeg);
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(store.locate({ProgramId{7}, i}).empty()) << i;
  }
  EXPECT_FALSE(store.locate({ProgramId{8}, 0}).empty());
}

TEST(SegmentStore, EvictAbsentProgramIsNoOp) {
  auto store = make_store(2, DataSize::gigabytes(1));
  EXPECT_EQ(store.evict_program(ProgramId{99}), DataSize{});
}

TEST(SegmentStore, EvictionReleasesPlacementPressure) {
  auto store = make_store(1, DataSize::megabytes(600));
  ASSERT_TRUE(store.store({ProgramId{1}, 0}, DataSize::megabytes(400)));
  EXPECT_EQ(store.store({ProgramId{2}, 0}, DataSize::megabytes(400)),
            std::nullopt);
  store.evict_program(ProgramId{1});
  EXPECT_TRUE(store.store({ProgramId{2}, 0}, DataSize::megabytes(400)));
}

TEST(SegmentStore, ReplicasGoToDistinctPeers) {
  auto store = make_store(3, DataSize::gigabytes(1));
  const SegmentKey key{ProgramId{1}, 0};
  const auto first = store.store(key, kSeg);
  const auto second = store.store(key, kSeg);
  const auto third = store.store(key, kSeg);
  ASSERT_TRUE(first && second && third);
  EXPECT_NE(*first, *second);
  EXPECT_NE(*second, *third);
  EXPECT_NE(*first, *third);
  EXPECT_EQ(store.locate(key).size(), 3u);
  EXPECT_EQ(store.used(), kSeg * 3);  // the three replicas, nothing else
}

TEST(SegmentStore, ReplicaRefusedWhenAllPeersHoldOne) {
  auto store = make_store(2, DataSize::gigabytes(1));
  const SegmentKey key{ProgramId{1}, 0};
  ASSERT_TRUE(store.store(key, kSeg));
  ASSERT_TRUE(store.store(key, kSeg));
  EXPECT_EQ(store.store(key, kSeg), std::nullopt);
  EXPECT_EQ(store.locate(key).size(), 2u);
}

TEST(SegmentStore, EvictProgramDropsAllReplicas) {
  auto store = make_store(3, DataSize::gigabytes(1));
  const SegmentKey key{ProgramId{1}, 0};
  ASSERT_TRUE(store.store(key, kSeg));
  ASSERT_TRUE(store.store(key, kSeg));
  const auto freed = store.evict_program(ProgramId{1});
  EXPECT_EQ(freed, kSeg * 2);
  EXPECT_TRUE(store.locate(key).empty());
  EXPECT_EQ(store.used(), DataSize{});
}

TEST(SegmentStore, ProgramBytesSumsSegmentsAndReplicas) {
  auto store = make_store(4, DataSize::gigabytes(1));
  ASSERT_TRUE(store.store({ProgramId{1}, 0}, kSeg));
  ASSERT_TRUE(store.store({ProgramId{1}, 1}, kSeg));
  ASSERT_TRUE(store.store({ProgramId{1}, 0}, kSeg));  // replica
  // Program 1 is all the store holds: two segments, one of them twice.
  EXPECT_EQ(store.used(), kSeg * 3);
  EXPECT_EQ(store.locate({ProgramId{1}, 0}).size(), 2u);
  EXPECT_EQ(store.locate({ProgramId{1}, 1}).size(), 1u);
  EXPECT_TRUE(store.locate({ProgramId{2}, 0}).empty());
}

TEST(SegmentStore, StoredProgramsLists) {
  auto store = make_store(4, DataSize::gigabytes(1));
  ASSERT_TRUE(store.store({ProgramId{1}, 0}, kSeg));
  ASSERT_TRUE(store.store({ProgramId{5}, 0}, kSeg));
  for (std::uint32_t p = 0; p < 8; ++p) {
    EXPECT_EQ(store.locate({ProgramId{p}, 0}).empty(), p != 1 && p != 5) << p;
  }
}

// 2^32 bits: the smallest replica size a slot cannot hold inline.
constexpr auto kWide = DataSize::bits(std::int64_t{1} << 32);

TEST(SegmentStore, SecondReplicaSpillsAnInlineSlot) {
  auto store = make_store(3, DataSize::gigabytes(1));
  const SegmentKey key{ProgramId{1}, 0};
  const auto first = store.store(key, kSeg);
  ASSERT_TRUE(first);
  ASSERT_EQ(store.locate(key).size(), 1u);
  EXPECT_EQ(store.locate(key)[0], *first);
  // The second replica moves the inline one into the arena, first.
  const auto second = store.store(key, DataSize::megabytes(200));
  ASSERT_TRUE(second);
  const auto replicas = store.locate(key);
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_EQ(replicas[0], *first);
  EXPECT_EQ(replicas[1], *second);
  EXPECT_EQ(store.peer_used(*first), kSeg);
  EXPECT_EQ(store.peer_used(*second), DataSize::megabytes(200));
  EXPECT_EQ(store.used(), kSeg + DataSize::megabytes(200));
  EXPECT_EQ(store.evict_program(ProgramId{1}),
            kSeg + DataSize::megabytes(200));
  EXPECT_EQ(store.used(), DataSize{});
}

TEST(SegmentStore, WipeOfOneOfTwoReplicasKeepsTheSurvivor) {
  auto store = make_store(3, DataSize::gigabytes(1));
  const SegmentKey key{ProgramId{1}, 0};
  const auto first = store.store(key, kSeg);
  const auto second = store.store(key, kSeg);
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
  auto store = make_store(2, DataSize::gigabytes(2));
  const auto wide = kWide;  // exactly 2^32 bits
  const SegmentKey key{ProgramId{4}, 1};
  const auto peer = store.store(key, wide);
  ASSERT_TRUE(peer);
  ASSERT_EQ(store.locate(key).size(), 1u);
  EXPECT_EQ(store.locate(key)[0], *peer);
  EXPECT_EQ(store.used(), wide);
  EXPECT_EQ(store.peer_used(*peer), wide);
  // One bit short of 2^32 fits inline, beside it on the other peer.
  const auto narrow = kWide - DataSize::bits(1);
  const auto other = store.store({ProgramId{4}, 0}, narrow);
  ASSERT_TRUE(other);
  EXPECT_NE(*other, *peer);
  EXPECT_EQ(store.peer_used(*other), narrow);
  EXPECT_EQ(store.used(), wide + narrow);
  EXPECT_EQ(store.evict_program(ProgramId{4}), wide + narrow);
  EXPECT_EQ(store.peer_used(*peer), DataSize{});
  EXPECT_EQ(store.used(), DataSize{});
}

TEST(SegmentStore, ManyOperationsPreserveAccounting) {
  auto store = make_store(8, DataSize::gigabytes(2));
  // Interleave stores and evictions, then check global accounting.
  for (std::uint32_t round = 0; round < 20; ++round) {
    for (std::uint32_t p = 0; p < 5; ++p) {
      for (std::uint32_t s = 0; s < 4; ++s) {
        (void)store.store({ProgramId{round * 5 + p}, s}, kSeg);
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
