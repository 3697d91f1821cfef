// HFC deployment topology (paper section II, figure 1).
//
// cable operator --(switched fiber)--> headends --(broadcast coax)-->
// neighborhoods of subscribers.  Subscribers are placed into neighborhoods
// uniformly at random, but — exactly as in section V-B — placement depends
// only on (user_count, neighborhood_size), never on the run's RNG, so two
// runs with the same sizing differ only by algorithm behaviour.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace vodcache::hfc {

// Coax plant parameters from section II of the paper.
struct CoaxSpec {
  // Total downstream capacity depends on cable quality.
  DataRate downstream_low = DataRate::gigabits_per_second(4.9);
  DataRate downstream_high = DataRate::gigabits_per_second(6.6);
  // Of which broadcast television permanently occupies ~3.3 Gb/s.
  DataRate tv_broadcast = DataRate::gigabits_per_second(3.3);
  // Standardized upstream allocation shared by the whole neighborhood.
  DataRate upstream = DataRate::megabits_per_second(215.0);

  [[nodiscard]] DataRate available_low() const {
    return downstream_low - tv_broadcast;
  }
  [[nodiscard]] DataRate available_high() const {
    return downstream_high - tv_broadcast;
  }

  // Headroom query: is `current` still below `fraction` of the available
  // band, judged against the conservative low-quality-plant figure?  The
  // coax-headroom admission policy gates cache admission on this.
  [[nodiscard]] bool vod_headroom(DataRate current, double fraction) const {
    return current.bps() < fraction * available_low().bps();
  }
  bool operator==(const CoaxSpec&) const = default;
};

// A planned unavailability window of one tier level (plant maintenance,
// regional outage).  While it covers `t` the whole level serves nothing and
// misses walk past it.
struct TierOutage {
  sim::SimTime start;
  sim::SimTime duration;

  [[nodiscard]] bool covers(sim::SimTime t) const {
    return t >= start && t < start + duration;
  }
  bool operator==(const TierOutage&) const = default;
};

// One aggregation level above the neighborhoods in the tier tree (e.g. a
// regional hub, a metro cache).  `fan_in` child nodes of the level below
// (neighborhoods for level 0) share one node of this level; the last node
// may aggregate fewer.  Capacity and uplink are per node; the uplink caps
// how many bytes of *new* content a node may pull per prefetch refresh
// (0 bps = unconstrained).  `cost_per_gb` prices every byte the node
// serves, so reports can draw a cost-vs-hit-rate frontier against the
// origin's rate.
struct TierLevelSpec {
  std::string name = "hub";
  std::uint32_t fan_in = 8;
  DataSize capacity;
  DataRate uplink;
  double cost_per_gb = 0.01;
  std::vector<TierOutage> outages;

  [[nodiscard]] bool in_outage(sim::SimTime t) const {
    for (const auto& outage : outages) {
      if (outage.covers(t)) return true;
    }
    return false;
  }
  bool operator==(const TierLevelSpec&) const = default;
};

class Topology {
 public:
  // Partitions `user_count` subscribers into neighborhoods of
  // `neighborhood_size` (the last neighborhood may be smaller).  This
  // two-argument form is the paper's two-level world: no tiers between the
  // neighborhoods and the origin.
  static Topology build(std::uint32_t user_count,
                        std::uint32_t neighborhood_size);

  // Tiered form: stacks `tiers` aggregation levels above the neighborhoods
  // (tiers[0] closest to the neighborhoods, tiers.back() closest to the
  // origin).  Peer placement is untouched by the tier stack — an empty
  // `tiers` is byte-identical to the two-argument build, and a tiered
  // build still places every subscriber exactly as the two-level one does.
  static Topology build(std::uint32_t user_count,
                        std::uint32_t neighborhood_size,
                        std::vector<TierLevelSpec> tiers);

  [[nodiscard]] std::uint32_t user_count() const { return user_count_; }
  [[nodiscard]] std::uint32_t neighborhood_count() const {
    return neighborhood_count_;
  }

  [[nodiscard]] NeighborhoodId neighborhood_of(UserId user) const;
  // Index of the user's set-top box within its neighborhood.
  [[nodiscard]] PeerId peer_of(UserId user) const;
  [[nodiscard]] std::uint32_t size_of(NeighborhoodId n) const;

  // ---- tier tree (empty in the two-level world) ----
  [[nodiscard]] std::size_t tier_count() const { return tiers_.size(); }
  [[nodiscard]] const TierLevelSpec& tier(std::size_t level) const;
  // Number of nodes at `level`: ceil(neighborhood_count / prod(fan_in)).
  [[nodiscard]] std::uint32_t tier_node_count(std::size_t level) const;
  // Which node of `level` aggregates neighborhood `n`.
  [[nodiscard]] std::uint32_t tier_node_of(std::size_t level,
                                           NeighborhoodId n) const;

 private:
  std::uint32_t user_count_ = 0;
  std::uint32_t neighborhood_size_ = 0;
  std::uint32_t neighborhood_count_ = 0;
  // position_[u] is user u's slot in the global shuffled order.
  std::vector<std::uint32_t> position_;
  std::vector<TierLevelSpec> tiers_;
  // tier_divisor_[l] = prod of fan_in up to level l: node = n / divisor.
  // floor(floor(n/a)/b) == floor(n/(a*b)) for positive integers, so one
  // divisor per level replaces the chained walk.
  std::vector<std::uint64_t> tier_divisor_;
};

}  // namespace vodcache::hfc
