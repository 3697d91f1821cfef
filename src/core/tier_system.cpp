#include "core/tier_system.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/assert.hpp"

namespace vodcache::core {

TierPlanBuilder::TierPlanBuilder(const hfc::Topology& topology,
                                 const SystemConfig& config,
                                 const trace::Catalog& catalog)
    : topology_(topology),
      config_(config),
      catalog_(catalog),
      refresh_ms_(config.prefetch.refresh.millis_count()) {
  VODCACHE_EXPECTS(topology.tier_count() > 0);
  // None skips the build entirely.
  VODCACHE_EXPECTS(config.prefetch.kind != PrefetchKind::None);
  VODCACHE_EXPECTS(refresh_ms_ > 0);
  const auto levels = topology.tier_count();
  counts_.resize(levels);
  windows_.resize(levels);
  for (std::size_t l = 0; l < levels; ++l) {
    counts_[l].resize(topology.tier_node_count(l));
    windows_[l].resize(topology.tier_node_count(l));
  }
}

void TierPlanBuilder::flush_window() {
  for (std::size_t l = 0; l < counts_.size(); ++l) {
    for (std::size_t node = 0; node < counts_[l].size(); ++node) {
      auto& demand = counts_[l][node];
      // Aggregate the append log: sort by id, then run-length encode —
      // the same (id-sorted program, count) rows the old per-window hash
      // map flushed.
      std::sort(demand.begin(), demand.end());
      std::vector<WindowCount> window;
      for (std::size_t i = 0; i < demand.size();) {
        std::size_t j = i + 1;
        while (j < demand.size() && demand[j] == demand[i]) ++j;
        window.push_back({ProgramId{demand[i]},
                          static_cast<std::uint64_t>(j - i)});
        i = j;
      }
      windows_[l][node].push_back(std::move(window));
      demand.clear();
    }
  }
  ++current_window_;
}

void TierPlanBuilder::observe(NeighborhoodId neighborhood, ProgramId program,
                              sim::SimTime t) {
  const std::int64_t window = t.millis_count() / refresh_ms_;
  VODCACHE_EXPECTS(window >= current_window_);  // stream order
  while (current_window_ < window) flush_window();
  for (std::size_t l = 0; l < counts_.size(); ++l) {
    const auto node = topology_.tier_node_of(l, neighborhood);
    counts_[l][node].push_back(program.value());
  }
}

PeriodSet TierPlanBuilder::pack_window(const hfc::TierLevelSpec& spec,
                                       std::vector<WindowCount> window,
                                       const PeriodSet& previous) const {
  // Highest demand first, lower id on ties.
  std::stable_sort(window.begin(), window.end(),
                   [](const WindowCount& a, const WindowCount& b) {
                     if (a.count != b.count) return a.count > b.count;
                     return a.program.value() < b.program.value();
                   });

  // Rotation budget: bytes not carried over from the previous window are
  // limited to what the uplink can pull in one refresh.  Computed in
  // double — uplink x refresh can exceed what DataSize holds, and the
  // comparison does not need bit exactness.
  const double budget_bits =
      spec.uplink.bps() > 0.0
          ? spec.uplink.bps() * (static_cast<double>(refresh_ms_) / 1000.0)
          : std::numeric_limits<double>::infinity();
  const std::int64_t capacity_bits = spec.capacity.bit_count();

  PeriodSet resident;
  std::int64_t used_bits = 0;
  double new_bits = 0.0;
  for (const auto& entry : window) {
    const std::int64_t size_bits =
        catalog_.program_size(entry.program, config_.stream_rate).bit_count();
    if (used_bits + size_bits > capacity_bits) continue;  // greedy skip
    const bool carried = std::binary_search(previous.begin(), previous.end(),
                                            entry.program);
    if (!carried && new_bits + static_cast<double>(size_bits) > budget_bits) {
      continue;
    }
    resident.push_back(entry.program);
    used_bits += size_bits;
    if (!carried) new_bits += static_cast<double>(size_bits);
  }
  std::sort(resident.begin(), resident.end());
  return resident;
}

void TierPlanBuilder::pack(std::vector<LevelPlan>& plans, std::size_t upto) {
  // The oracle plans window k from its own accesses; top-popular from
  // window k-1's.  Each flushed window feeds one plan, so it is handed
  // over, not copied.
  const bool clairvoyant = config_.prefetch.kind == PrefetchKind::Oracle;
  static const PeriodSet kEmpty;
  for (; packed_ < upto; ++packed_) {
    const std::size_t k = packed_;
    for (std::size_t l = 0; l < windows_.size(); ++l) {
      const auto& spec = topology_.tier(l);
      for (std::size_t node = 0; node < windows_[l].size(); ++node) {
        auto& flushed = windows_[l][node];
        std::vector<WindowCount> source;
        if (clairvoyant) {
          source = std::move(flushed[k]);
        } else if (k > 0) {
          source = std::move(flushed[k - 1]);
        }
        auto& node_plan = plans[l][node];
        node_plan[k] = pack_window(spec, std::move(source),
                                   k > 0 ? node_plan[k - 1] : kEmpty);
      }
    }
  }
}

std::vector<LevelPlan> TierPlanBuilder::finish(sim::SimTime horizon) {
  flush_window();
  // One window past the horizon: segment boundaries of sessions straddling
  // the end still find a built window (serving_level clamps anyway; this
  // keeps the clamp the common case's no-op).
  const std::int64_t needed = horizon.millis_count() / refresh_ms_ + 2;
  while (current_window_ < needed) flush_window();

  const auto window_count = static_cast<std::size_t>(current_window_);
  std::vector<LevelPlan> plans(windows_.size());
  for (std::size_t l = 0; l < windows_.size(); ++l) {
    plans[l].assign(windows_[l].size(), NodePlan(window_count));
  }
  pack(plans, window_count);
  return plans;
}

void TierPlanBuilder::publish(sim::SimTime through, TierSystem& tiers) {
  VODCACHE_EXPECTS(tiers.topology_ == &topology_);
  VODCACHE_EXPECTS(!tiers.plans_.empty());
  const auto table = static_cast<std::int64_t>(tiers.table_windows_);
  // A window's input is complete once every start before its end is
  // observed.
  const std::int64_t complete = through.millis_count() / refresh_ms_;
  while (current_window_ < table && current_window_ < complete) {
    flush_window();
  }
  const std::int64_t ready =
      config_.prefetch.kind == PrefetchKind::Oracle ? current_window_
                                                    : current_window_ + 1;
  pack(tiers.plans_, static_cast<std::size_t>(std::min(ready, table)));
  tiers.published_.store(packed_, std::memory_order_release);
}

TierSystem::TierSystem(const hfc::Topology& topology, sim::SimTime refresh)
    : topology_(&topology), refresh_ms_(refresh.millis_count()) {
  VODCACHE_EXPECTS(topology.tier_count() > 0);
  VODCACHE_EXPECTS(refresh_ms_ > 0);
}

std::vector<std::uint32_t> TierSystem::node_path(NeighborhoodId n) const {
  std::vector<std::uint32_t> nodes;
  nodes.reserve(level_count());
  for (std::size_t l = 0; l < level_count(); ++l) {
    nodes.push_back(topology_->tier_node_of(l, n));
  }
  return nodes;
}

void TierSystem::set_plans(std::vector<LevelPlan> plans) {
  VODCACHE_EXPECTS(plans.size() == level_count());
  plans_ = std::move(plans);
  published_.store(std::numeric_limits<std::size_t>::max(),
                   std::memory_order_release);
}

void TierSystem::size_plans(sim::SimTime horizon) {
  table_windows_ =
      static_cast<std::size_t>(horizon.millis_count() / refresh_ms_ + 2);
  plans_.assign(level_count(), {});
  for (std::size_t l = 0; l < level_count(); ++l) {
    plans_[l].assign(topology_->tier_node_count(l),
                     NodePlan(table_windows_));
  }
  published_.store(0, std::memory_order_release);
}

std::optional<std::size_t> TierSystem::serving_level(
    std::span<const std::uint32_t> nodes, ProgramId program,
    sim::SimTime t) const {
  if (plans_.empty()) return std::nullopt;  // PrefetchKind::None
  VODCACHE_EXPECTS(nodes.size() == level_count());
  const std::int64_t window = t.millis_count() / refresh_ms_;
  const std::size_t published = published_.load(std::memory_order_acquire);
  for (std::size_t l = 0; l < plans_.size(); ++l) {
    const auto& node_plan = plans_[l][nodes[l]];
    if (node_plan.empty()) continue;
    const auto k = static_cast<std::size_t>(
        std::min<std::int64_t>(window,
                               static_cast<std::int64_t>(node_plan.size()) - 1));
    VODCACHE_EXPECTS(k < published);
    if (topology_->tier(l).in_outage(t)) continue;
    const auto& resident = node_plan[k];
    if (std::binary_search(resident.begin(), resident.end(), program)) {
      return l;
    }
  }
  return std::nullopt;
}

}  // namespace vodcache::core
