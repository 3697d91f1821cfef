// Unit tests for the HFC substrate: topology placement and set-top boxes.
#include <gtest/gtest.h>

#include <vector>

#include "hfc/settop.hpp"
#include "hfc/topology.hpp"

namespace vodcache::hfc {
namespace {

// ---------------------------------------------------------------- Topology

TEST(Topology, NeighborhoodCountRoundsUp) {
  EXPECT_EQ(Topology::build(1000, 100).neighborhood_count(), 10u);
  EXPECT_EQ(Topology::build(1001, 100).neighborhood_count(), 11u);
  EXPECT_EQ(Topology::build(99, 100).neighborhood_count(), 1u);
}

TEST(Topology, EveryUserHasValidPlacement) {
  const auto topology = Topology::build(937, 100);
  for (std::uint32_t u = 0; u < 937; ++u) {
    const auto n = topology.neighborhood_of(UserId{u});
    const auto p = topology.peer_of(UserId{u});
    EXPECT_LT(n.value(), topology.neighborhood_count());
    EXPECT_LT(p.value(), topology.size_of(n));
  }
}

TEST(Topology, PlacementIsAPartition) {
  const auto topology = Topology::build(500, 64);
  // (neighborhood, peer) pairs must be unique across users.
  std::vector<std::vector<bool>> seen(topology.neighborhood_count());
  for (std::uint32_t n = 0; n < topology.neighborhood_count(); ++n) {
    seen[n].assign(topology.size_of(NeighborhoodId{n}), false);
  }
  for (std::uint32_t u = 0; u < 500; ++u) {
    const auto n = topology.neighborhood_of(UserId{u}).value();
    const auto p = topology.peer_of(UserId{u}).value();
    EXPECT_FALSE(seen[n][p]) << "duplicate slot for user " << u;
    seen[n][p] = true;
  }
}

TEST(Topology, SizesSumToUserCount) {
  const auto topology = Topology::build(12345, 1000);
  std::uint64_t total = 0;
  for (std::uint32_t n = 0; n < topology.neighborhood_count(); ++n) {
    total += topology.size_of(NeighborhoodId{n});
  }
  EXPECT_EQ(total, 12345u);
}

TEST(Topology, LastNeighborhoodHoldsRemainder) {
  const auto topology = Topology::build(250, 100);
  EXPECT_EQ(topology.size_of(NeighborhoodId{0}), 100u);
  EXPECT_EQ(topology.size_of(NeighborhoodId{1}), 100u);
  EXPECT_EQ(topology.size_of(NeighborhoodId{2}), 50u);
}

TEST(Topology, ExactDivisionHasNoRemainder) {
  const auto topology = Topology::build(300, 100);
  EXPECT_EQ(topology.neighborhood_count(), 3u);
  EXPECT_EQ(topology.size_of(NeighborhoodId{2}), 100u);
}

// Section V-B: "Peer placement is the same for each execution of the
// simulation with the same neighborhood size parameter."
TEST(Topology, PlacementDeterministicAcrossBuilds) {
  const auto a = Topology::build(2000, 250);
  const auto b = Topology::build(2000, 250);
  for (std::uint32_t u = 0; u < 2000; ++u) {
    EXPECT_EQ(a.neighborhood_of(UserId{u}), b.neighborhood_of(UserId{u}));
    EXPECT_EQ(a.peer_of(UserId{u}), b.peer_of(UserId{u}));
  }
}

TEST(Topology, PlacementShuffled) {
  // Users should not be assigned in identity order (0..k to neighborhood 0).
  const auto topology = Topology::build(10000, 1000);
  std::uint32_t in_order = 0;
  for (std::uint32_t u = 0; u < 1000; ++u) {
    in_order += (topology.neighborhood_of(UserId{u}).value() == 0);
  }
  // Uniformly random placement puts ~10% of the first 1000 users in
  // neighborhood 0; identity order would put 100%.
  EXPECT_LT(in_order, 300u);
  EXPECT_GT(in_order, 20u);
}

TEST(Topology, DifferentNeighborhoodSizeDifferentPlacement) {
  const auto a = Topology::build(5000, 100);
  const auto b = Topology::build(5000, 500);
  std::uint32_t same_peer = 0;
  for (std::uint32_t u = 0; u < 5000; ++u) {
    same_peer += (a.peer_of(UserId{u}) == b.peer_of(UserId{u}));
  }
  EXPECT_LT(same_peer, 2000u);
}

TEST(Topology, SingleUserSystem) {
  const auto topology = Topology::build(1, 1000);
  EXPECT_EQ(topology.neighborhood_count(), 1u);
  EXPECT_EQ(topology.size_of(NeighborhoodId{0}), 1u);
  EXPECT_EQ(topology.neighborhood_of(UserId{0}), NeighborhoodId{0});
  EXPECT_EQ(topology.peer_of(UserId{0}), PeerId{0});
}

TEST(Topology, NeighborhoodAndPeerAgreeAcrossRemainderBoundary) {
  // 5 full neighborhoods of 64 plus a 13-user remainder: every user's
  // peer index must be valid *for the neighborhood it was placed in*,
  // including the smaller last one.
  const auto topology = Topology::build(5 * 64 + 13, 64);
  ASSERT_EQ(topology.neighborhood_count(), 6u);
  EXPECT_EQ(topology.size_of(NeighborhoodId{5}), 13u);
  for (std::uint32_t u = 0; u < 5 * 64 + 13; ++u) {
    const auto n = topology.neighborhood_of(UserId{u});
    EXPECT_LT(topology.peer_of(UserId{u}).value(), topology.size_of(n))
        << "user " << u << " in neighborhood " << n.value();
  }
}

// ------------------------------------------------------------- Tier levels

TierLevelSpec hub_spec(std::uint32_t fan_in) {
  TierLevelSpec spec;
  spec.fan_in = fan_in;
  spec.capacity = DataSize::gigabytes(100);
  return spec;
}

TEST(Topology, TwoArgBuildHasNoTiers) {
  const auto topology = Topology::build(1000, 100);
  EXPECT_EQ(topology.tier_count(), 0u);
}

TEST(Topology, TierNodeMappingRoundsUp) {
  // 10 neighborhoods under fan-in-4 hubs: nodes {0,1,2}, the last one
  // covering only 2 neighborhoods.
  const auto topology = Topology::build(1000, 100, {hub_spec(4)});
  ASSERT_EQ(topology.tier_count(), 1u);
  EXPECT_EQ(topology.tier_node_count(0), 3u);
  EXPECT_EQ(topology.tier_node_of(0, NeighborhoodId{0}), 0u);
  EXPECT_EQ(topology.tier_node_of(0, NeighborhoodId{3}), 0u);
  EXPECT_EQ(topology.tier_node_of(0, NeighborhoodId{4}), 1u);
  EXPECT_EQ(topology.tier_node_of(0, NeighborhoodId{9}), 2u);
}

TEST(Topology, ChainedTierDivisorsCompose) {
  // 24 neighborhoods -> fan-in-4 hubs (6 nodes) -> fan-in-3 regions
  // (2 nodes): level 1's divisor is the *product* of fan-ins.
  const auto topology =
      Topology::build(2400, 100, {hub_spec(4), hub_spec(3)});
  ASSERT_EQ(topology.tier_count(), 2u);
  EXPECT_EQ(topology.tier_node_count(0), 6u);
  EXPECT_EQ(topology.tier_node_count(1), 2u);
  EXPECT_EQ(topology.tier_node_of(1, NeighborhoodId{11}), 0u);
  EXPECT_EQ(topology.tier_node_of(1, NeighborhoodId{12}), 1u);
}

TEST(Topology, TiersDoNotPerturbPlacement) {
  // The tier tree sits above the neighborhoods; adding one must not move
  // a single user (the two-level world is the degenerate case).
  const auto flat = Topology::build(2000, 250);
  const auto tiered = Topology::build(2000, 250, {hub_spec(8)});
  for (std::uint32_t u = 0; u < 2000; ++u) {
    EXPECT_EQ(flat.neighborhood_of(UserId{u}),
              tiered.neighborhood_of(UserId{u}));
    EXPECT_EQ(flat.peer_of(UserId{u}), tiered.peer_of(UserId{u}));
  }
}

TEST(TierLevelSpec, OutageWindowIsHalfOpen) {
  TierLevelSpec spec = hub_spec(4);
  spec.outages.push_back(
      {sim::SimTime::hours(10), sim::SimTime::hours(2)});
  EXPECT_FALSE(spec.in_outage(sim::SimTime::hours(9)));
  EXPECT_TRUE(spec.in_outage(sim::SimTime::hours(10)));
  EXPECT_TRUE(spec.in_outage(sim::SimTime::hours(11)));
  EXPECT_FALSE(spec.in_outage(sim::SimTime::hours(12)));
}

// ---------------------------------------------------------------- CoaxSpec

TEST(CoaxSpec, PaperConstants) {
  const CoaxSpec spec;
  EXPECT_DOUBLE_EQ(spec.downstream_low.gbps(), 4.9);
  EXPECT_DOUBLE_EQ(spec.downstream_high.gbps(), 6.6);
  EXPECT_DOUBLE_EQ(spec.tv_broadcast.gbps(), 3.3);
  EXPECT_DOUBLE_EQ(spec.upstream.mbps(), 215.0);
  EXPECT_NEAR(spec.available_low().gbps(), 1.6, 1e-9);
  EXPECT_NEAR(spec.available_high().gbps(), 3.3, 1e-9);
}

// ------------------------------------------------------------- StreamSlots

sim::Interval span(std::int64_t from_s, std::int64_t to_s) {
  return {sim::SimTime::seconds(from_s), sim::SimTime::seconds(to_s)};
}

TEST(StreamSlots, AcquireUpToLimit) {
  StreamSlots slots(1, 2);
  EXPECT_TRUE(slots.try_acquire(0, span(0, 300)));
  EXPECT_TRUE(slots.try_acquire(0, span(0, 300)));
  EXPECT_FALSE(slots.try_acquire(0, span(0, 300)));
}

TEST(StreamSlots, ReleasesAfterExpiry) {
  StreamSlots slots(1, 2);
  EXPECT_TRUE(slots.try_acquire(0, span(0, 300)));
  EXPECT_TRUE(slots.try_acquire(0, span(0, 300)));
  // Both transmissions ended by t=300: both slots are free again.
  EXPECT_TRUE(slots.try_acquire(0, span(300, 600)));
  EXPECT_TRUE(slots.try_acquire(0, span(300, 600)));
  EXPECT_FALSE(slots.try_acquire(0, span(300, 600)));
}

TEST(StreamSlots, EndExactlyAtQueryIsFree) {
  StreamSlots slots(1, 1);
  EXPECT_TRUE(slots.try_acquire(0, span(0, 100)));
  EXPECT_FALSE(slots.try_acquire(0, span(99, 200)));
  EXPECT_TRUE(slots.try_acquire(0, span(100, 200)));
}

TEST(StreamSlots, OverlappingWindows) {
  StreamSlots slots(1, 2);
  EXPECT_TRUE(slots.try_acquire(0, span(0, 300)));
  EXPECT_TRUE(slots.try_acquire(0, span(100, 400)));
  EXPECT_FALSE(slots.try_acquire(0, span(200, 500)));
  EXPECT_TRUE(slots.try_acquire(0, span(300, 600)));  // first expired
}

TEST(StreamSlots, UncheckedExceedsLimit) {
  StreamSlots slots(1, 2);
  slots.acquire_unchecked(0, span(0, 300));
  slots.acquire_unchecked(0, span(0, 400));
  slots.acquire_unchecked(0, span(0, 500));  // viewer playback never blocked
  // Three stacked streams are live, then two, then one: only the third
  // leaves a slot free.
  EXPECT_FALSE(slots.try_acquire(0, span(1, 10)));
  EXPECT_FALSE(slots.try_acquire(0, span(300, 310)));
  EXPECT_TRUE(slots.try_acquire(0, span(400, 410)));
}

TEST(StreamSlots, ViewerOccupancyBlocksServing) {
  // The paper's serving-side rule: a box already watching 2 streams cannot
  // serve a third.
  StreamSlots slots(1, 2);
  slots.acquire_unchecked(0, span(0, 1000));  // viewer's own playback
  EXPECT_TRUE(slots.try_acquire(0, span(10, 310)));   // one serve fits
  EXPECT_FALSE(slots.try_acquire(0, span(20, 320)));  // second serve refused
}

TEST(StreamSlots, SaturatedBoxDoesNotBlockAnother) {
  StreamSlots slots(2, 2);
  EXPECT_EQ(slots.peer_count(), 2u);
  slots.acquire_unchecked(0, span(0, 1000));
  EXPECT_TRUE(slots.try_acquire(0, span(10, 500)));
  EXPECT_FALSE(slots.try_acquire(0, span(20, 500)));  // box 0 saturated
  EXPECT_TRUE(slots.try_acquire(1, span(20, 500)));
  EXPECT_TRUE(slots.try_acquire(1, span(30, 500)));
  EXPECT_FALSE(slots.try_acquire(1, span(40, 500)));  // box 1 saturated too
  EXPECT_TRUE(slots.try_acquire(0, span(500, 600)));  // box 0's serve ended
}

}  // namespace
}  // namespace vodcache::hfc
