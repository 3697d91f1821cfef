// SimulationReport: everything the paper's figures read off a run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_cell.hpp"
#include "core/config.hpp"
#include "sim/peak_stats.hpp"
#include "util/units.hpp"

namespace vodcache::core {

struct NeighborhoodReport {
  std::uint32_t peer_count = 0;
  // Total coax traffic during the peak window (figure 14).
  sim::PeakStats coax_peak;
  // Peer-originated (upstream-path) share of that traffic.
  sim::PeakStats peer_peak;
  // What this neighborhood's headend pulls over the switched fiber — the
  // miss traffic (coax minus peer-served), i.e. the per-headend share of
  // the central server load.  Sizes the operator's fiber provisioning.
  sim::PeakStats fiber_peak;
  std::uint64_t sessions = 0;
  std::uint64_t hits = 0;
  std::uint64_t cold_misses = 0;
  std::uint64_t busy_misses = 0;
  // Sessions whose program the admission policy refused to cache.  Always
  // 0 under always-admit; serialized only when a gate is active, so
  // default-admission reports keep their pre-policy-engine bytes.
  std::uint64_t admission_denials = 0;
  // Segment transmissions (== hits + cold_misses + busy_misses; the
  // invariant fuzzer checks the identity per neighborhood across switch
  // boundaries).  Always populated; serialized only in policy-switching
  // runs so pre-existing report bytes are unchanged.
  std::uint64_t segments = 0;
  DataSize cache_used;
  DataSize cache_capacity;
};

// One row of the tiered breakdown: a cache tier above the neighborhoods,
// or the origin (always the last row).  `requests` is the segment misses
// that reached the row's level; `hits` the ones it absorbed; the
// difference walked on upward.
struct TierUsageReport {
  std::string name;
  std::uint32_t node_count = 0;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  double bits = 0.0;
  // bits priced at the level's per-gigabyte rate.
  double cost = 0.0;
};

// One row of the shadow-matrix breakdown: the counters a standalone run
// of (scorer x admission) would have produced, measured by that pair's
// cache cell riding the single shadow-matrix pass (pinned against real
// standalone runs in tests/shadow_bank_test.cpp).
struct ShadowCellReport : cache::CellCounters {
  std::string scorer;
  std::string admission;

  [[nodiscard]] double hit_ratio() const {
    const std::uint64_t total = hits + cold_misses + busy_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// One live policy promotion (SystemConfig::policy_switch): at `time`,
// neighborhood `neighborhood` switched its primary (from_*) to the shadow
// cell (to_*) that had out-hit it for k consecutive windows.  The window_*
// fields are the triggering window's hit counts.  The cumulative snapshots
// are the primary's continuous history and the winner's own counts — a
// standalone run of its pair — at the switch instant; they pin the
// warm-switch equivalence: post-switch primary counter deltas equal a
// standalone run of the winning pair measured from the same marks
// (tests/policy_switcher_test.cpp).
struct PolicySwitchRecord {
  std::uint32_t neighborhood = 0;
  sim::SimTime time;
  std::string from_scorer;
  std::string from_admission;
  std::string to_scorer;
  std::string to_admission;
  std::uint64_t window_primary_hits = 0;
  std::uint64_t window_winner_hits = 0;
  std::uint64_t primary_hits = 0;
  std::uint64_t primary_cold_misses = 0;
  std::uint64_t primary_busy_misses = 0;
  std::uint64_t winner_hits = 0;
  std::uint64_t winner_cold_misses = 0;
  std::uint64_t winner_busy_misses = 0;
};

struct SimulationReport {
  // Central server load during the peak window: the paper's headline
  // metric ("Average Server Rate (Gb/s)" with 5%/95% error bars).
  sim::PeakStats server_peak;
  // Mean server rate per hour of day (figure 7 shape).
  std::vector<DataRate> server_hourly;

  // Coax peak-window samples pooled across all neighborhoods (figure 14's
  // average and "poor cases").
  sim::PeakStats coax_peak_pooled;

  std::vector<NeighborhoodReport> neighborhoods;

  // Totals.
  std::uint64_t sessions = 0;
  std::uint64_t segments = 0;
  std::uint64_t hits = 0;
  std::uint64_t cold_misses = 0;
  std::uint64_t busy_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t fills = 0;
  // See NeighborhoodReport::admission_denials.
  std::uint64_t admission_denials = 0;
  std::uint64_t peer_failures = 0;
  double wiped_bytes = 0.0;
  double server_bits = 0.0;
  double peer_bits = 0.0;
  double coax_bits = 0.0;

  // Tiered-topology breakdown: one row per configured tier, then the
  // origin.  Empty — and absent from both serializations — in the
  // two-level world, so default reports keep their pre-tier bytes (pinned
  // in tests/policy_identity_test.cpp).
  std::vector<TierUsageReport> tiers;
  // Sum of the rows' costs; only meaningful when `tiers` is non-empty.
  double total_transfer_cost = 0.0;

  // Shadow-matrix breakdown, scorer-major in registry order.  Empty — and
  // absent from both serializations — unless SystemConfig::shadow_matrix
  // is on, so default reports keep their bytes (same gate discipline as
  // `tiers`).  The primary's own fields above are untouched by shadow
  // mode by construction (pinned in tests/shadow_bank_test.cpp).
  std::vector<ShadowCellReport> shadow_matrix;

  // Live policy switching (SystemConfig::policy_switch).  The flag — not
  // emptiness — gates serialization, so a switching run where no
  // neighborhood ever switched still declares the (empty) log; switch-off
  // reports keep their pre-existing bytes.
  bool policy_switching = false;
  std::vector<PolicySwitchRecord> policy_switches;

  // Echo of the run setup.
  std::uint32_t neighborhood_count = 0;
  std::uint32_t user_count = 0;
  StrategyKind strategy = StrategyKind::None;
  // Serialized only alongside `tiers` (same gate).
  PrefetchKind prefetch = PrefetchKind::None;
  // Serialized (JSON and text) only when not Always, so reports from
  // default-admission runs are byte-identical to the pre-policy-engine
  // format (pinned in tests/policy_identity_test.cpp).
  AdmissionKind admission_policy = AdmissionKind::Always;
  // Peak statistics exclude buckets before this time (warmup).
  sim::SimTime measured_from;

  [[nodiscard]] double hit_ratio() const;
  // Fraction of all bits served by peers instead of the central server.
  [[nodiscard]] double byte_hit_ratio() const;
  // Fraction of segments served by *any* cache — peers or tier nodes; in
  // the two-level world this equals hit_ratio().
  [[nodiscard]] double cache_hit_ratio() const;
  // Server-load reduction relative to a no-cache baseline peak mean.
  [[nodiscard]] double reduction_vs(DataRate no_cache_peak_mean) const;

  // Multi-line human-readable summary.
  [[nodiscard]] std::string to_string() const;
};

}  // namespace vodcache::core
