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

std::vector<LevelPlan> TierPlanBuilder::finish(sim::SimTime horizon) {
  flush_window();
  // One window past the horizon: segment boundaries of sessions straddling
  // the end still find a built window (serving_level clamps anyway; this
  // keeps the clamp the common case's no-op).
  const std::int64_t needed = horizon.millis_count() / refresh_ms_ + 2;
  while (current_window_ < needed) flush_window();

  const std::size_t window_count = static_cast<std::size_t>(current_window_);
  // The oracle plans window k from its own accesses; top-popular from
  // window k-1's.
  const bool clairvoyant = config_.prefetch.kind == PrefetchKind::Oracle;
  std::vector<LevelPlan> plans(windows_.size());
  for (std::size_t l = 0; l < windows_.size(); ++l) {
    const auto& spec = topology_.tier(l);
    plans[l].resize(windows_[l].size());
    for (std::size_t node = 0; node < windows_[l].size(); ++node) {
      auto& node_plan = plans[l][node];
      node_plan.resize(window_count);
      static const PeriodSet kEmpty;
      static const std::vector<WindowCount> kNoWindow;
      for (std::size_t k = 0; k < window_count; ++k) {
        const auto& source =
            clairvoyant
                ? windows_[l][node][k]
                : (k > 0 ? windows_[l][node][k - 1] : kNoWindow);
        node_plan[k] = pack_window(spec, source,
                                   k > 0 ? node_plan[k - 1] : kEmpty);
      }
    }
  }
  return plans;
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
}

std::optional<std::size_t> TierSystem::serving_level(
    std::span<const std::uint32_t> nodes, ProgramId program,
    sim::SimTime t) const {
  if (plans_.empty()) return std::nullopt;  // PrefetchKind::None
  VODCACHE_EXPECTS(nodes.size() == level_count());
  const std::int64_t window = t.millis_count() / refresh_ms_;
  for (std::size_t l = 0; l < plans_.size(); ++l) {
    if (topology_->tier(l).in_outage(t)) continue;
    const auto& node_plan = plans_[l][nodes[l]];
    if (node_plan.empty()) continue;
    const auto k = static_cast<std::size_t>(
        std::min<std::int64_t>(window,
                               static_cast<std::int64_t>(node_plan.size()) - 1));
    const auto& resident = node_plan[k];
    if (std::binary_search(resident.begin(), resident.end(), program)) {
      return l;
    }
  }
  return std::nullopt;
}

}  // namespace vodcache::core
