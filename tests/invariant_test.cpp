// Property-based invariant harness: ~50 seeded-random configurations —
// strategies x admission policies x thread counts x scenario adaptors —
// each driven through a small simulation, with conservation invariants
// asserted on every report:
//
//   * counter conservation — segments == hits + cold + busy misses, at
//     the report level and inside every neighborhood, and the totals are
//     exactly the sum of the neighborhoods;
//   * admission denials are bounded by sessions, and exactly zero when no
//     gate is active (always-admit, or no cache at all);
//   * byte conservation — every bit on a coax was served by a peer or by
//     the central server (coax_bits == peer_bits + server_bits, up to
//     floating-point summation order);
//   * no neighborhood's cached set ever exceeds its capacity;
//   * every meter and peak statistic is non-negative;
//   * the streamed and the materialized replay produce byte-identical
//     serialized reports.
//
// Unlike the identity pins (policy_identity_test), nothing here hashes a
// specific outcome: these properties must hold for *any* configuration,
// which is what lets the sweep draw its configs at random.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_audit_support.hpp"
#include "alloc_probe.hpp"
#include "core/policy_registry.hpp"
#include "core/report_json.hpp"
#include "core/vod_system.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"

VODCACHE_DEFINE_ALLOC_PROBE();

namespace vodcache {
namespace {

struct RandomCase {
  scenario::ScenarioSpec spec;
  core::SystemConfig config;
};

// Draws one configuration from the full cross space.  Everything derives
// from the case seed, so failures reproduce exactly.
RandomCase draw_case(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x1CEB00DA);
  RandomCase c;

  auto& w = c.spec.workload;
  w.days = static_cast<std::int32_t>(2 + rng.uniform_u64(2));  // 2-3
  w.user_count = static_cast<std::uint32_t>(120 + rng.uniform_u64(240));
  w.program_count = static_cast<std::uint32_t>(30 + rng.uniform_u64(50));
  w.sessions_per_user_per_day = rng.uniform_double(3.0, 6.0);
  w.seed = rng.next_u64();
  const auto horizon_hours = static_cast<std::int64_t>(w.days) * 24;

  auto& config = c.config;
  config.neighborhood_size = static_cast<std::uint32_t>(30 + rng.uniform_u64(60));
  config.per_peer_storage =
      DataSize::megabytes(100 + rng.uniform_int(0, 300));
  config.warmup = sim::SimTime::hours(rng.uniform_int(0, 24));
  config.strategy.lfu_history = sim::SimTime::hours(rng.uniform_int(12, 48));
  if (rng.bernoulli(0.3)) {
    config.strategy.global_lag = sim::SimTime::minutes(30);
  }
  if (rng.bernoulli(0.3)) {
    config.admission = core::CacheAdmission::Segment;
  }
  const auto scorers = core::scorer_registry();
  config.strategy.kind = scorers[rng.uniform_u64(scorers.size())].kind;
  const auto admissions = core::admission_registry();
  config.admission_policy.kind =
      admissions[rng.uniform_u64(admissions.size())].kind;
  config.admission_policy.probation_window =
      sim::SimTime::hours(rng.uniform_int(1, 24));
  // Low enough that the coax-headroom gate actually fires on some draws.
  config.admission_policy.headroom_fraction = rng.uniform_double(0.005, 0.9);
  // 16 on a handful of shards is deliberate oversubscription — the
  // executor's spare workers spin on steals and the report must not tell.
  const std::uint32_t thread_choices[] = {1, 2, 3, 8, 16};
  config.threads = thread_choices[rng.uniform_u64(5)];
  const sim::SimTime chunk_choices[] = {sim::SimTime::minutes(15),
                                        sim::SimTime::hours(1),
                                        sim::SimTime::hours(5)};
  config.stream_chunk = chunk_choices[rng.uniform_u64(3)];
  // Shadow-matrix axis: some draws carry every registered (scorer x
  // admission) pair as shadows; the per-cell invariants below apply.
  config.shadow_matrix = rng.bernoulli(0.3);
  // Policy-switch axis: live per-neighborhood promotion off the shadow
  // bank.  The knobs are drawn unconditionally (stable draw stream) but a
  // no-cache primary cannot switch (config validation), so the flag only
  // lands on real strategies.
  const bool want_switch = rng.bernoulli(0.3);
  const auto switch_hours = rng.uniform_int(1, 12);
  const auto switch_k = static_cast<int>(1 + rng.uniform_u64(3));
  if (want_switch && config.strategy.kind != core::StrategyKind::None) {
    config.policy_switch = true;
    config.switch_window = sim::SimTime::hours(switch_hours);
    config.switch_windows_k = switch_k;
  }

  // Scenario axis: each adaptor joins the stack with its own probability,
  // parameters drawn inside the ranges the workload makes valid.
  auto& flash = c.spec.flash_crowd;
  if (rng.bernoulli(0.4)) {
    flash.enabled = true;
    flash.title_rank = static_cast<std::uint32_t>(1 + rng.uniform_u64(5));
    flash.duration = sim::SimTime::hours(rng.uniform_int(1, 3));
    flash.start = sim::SimTime::hours(
        rng.uniform_int(0, horizon_hours - 3));
    flash.capture = rng.uniform_double(0.2, 1.0);
    flash.seed = rng.next_u64();
  }
  auto& waves = c.spec.release_waves;
  if (rng.bernoulli(0.4)) {
    waves.enabled = true;
    waves.period = sim::SimTime::hours(rng.uniform_int(6, 24));
    waves.window = sim::SimTime::hours(rng.uniform_int(1, 24));
    waves.wave_size = static_cast<std::uint32_t>(1 + rng.uniform_u64(10));
    waves.capture = rng.uniform_double(0.2, 0.8);
    waves.seed = rng.next_u64();
  }
  auto& skew = c.spec.skew;
  if (rng.bernoulli(0.4)) {
    skew.enabled = true;
    skew.hot_neighborhoods = 1;
    skew.population_share = rng.uniform_double(0.3, 0.9);
    if (rng.bernoulli(0.5)) {
      skew.regions = static_cast<std::uint32_t>(2 + rng.uniform_u64(3));
      skew.regional_affinity = rng.uniform_double(0.3, 0.9);
    }
    skew.seed = rng.next_u64();
  }
  auto& storm = c.spec.storm;
  if (rng.bernoulli(0.4)) {
    storm.enabled = true;
    storm.start = sim::SimTime::hours(rng.uniform_int(0, horizon_hours));
    storm.waves = static_cast<std::uint32_t>(1 + rng.uniform_u64(3));
    storm.period = sim::SimTime::hours(rng.uniform_int(2, 12));
    storm.fraction = rng.uniform_double(0.1, 0.5);
    storm.seed = rng.next_u64();
    scenario::apply_storm(storm, config);  // expand the storm schedule
  }
  // Tier axis: a hub level with a random prefetch policy, sometimes
  // capacity-starved, link-capped, or knocked out mid-horizon — the
  // conservation invariants below must hold across all of it.
  if (rng.bernoulli(0.4)) {
    hfc::TierLevelSpec hub;
    hub.fan_in = static_cast<std::uint32_t>(1 + rng.uniform_u64(4));
    hub.capacity = DataSize::gigabytes(rng.uniform_int(0, 40));
    if (rng.bernoulli(0.3)) {
      hub.uplink = DataRate::megabits_per_second(rng.uniform_double(1.0, 50.0));
    }
    hub.cost_per_gb = rng.uniform_double(0.0, 0.05);
    if (rng.bernoulli(0.3)) {
      hub.outages.push_back(
          {sim::SimTime::hours(rng.uniform_int(0, horizon_hours - 2)),
           sim::SimTime::hours(rng.uniform_int(1, 12))});
    }
    config.tiers.push_back(hub);
    const auto prefetches = core::prefetch_registry();
    config.prefetch.kind = prefetches[rng.uniform_u64(prefetches.size())].kind;
    config.prefetch.refresh = sim::SimTime::hours(rng.uniform_int(4, 24));
    config.origin_cost_per_gb = rng.uniform_double(0.01, 0.1);
  }
  return c;
}

// One line that names the failing case and everything it drew, so a
// failure can be re-run from its log alone:
//   ./build/invariant_test --gtest_filter='Seeds/RandomConfig.*/cfg<seed>'
std::string repro_line(std::uint64_t seed, const RandomCase& c) {
  const auto& w = c.spec.workload;
  const auto& cfg = c.config;
  const auto hours = [](sim::SimTime t) {
    return t.millis_count() / 3'600'000;
  };
  std::ostringstream line;
  line << "repro: cfg" << seed
       << " strategy=" << core::to_string(cfg.strategy.kind)
       << " admission=" << core::to_string(cfg.admission_policy.kind)
       << " granularity=" << core::to_string(cfg.admission)
       << " threads=" << cfg.threads
       << " chunk_min=" << cfg.stream_chunk.millis_count() / 60'000
       << " days=" << w.days << " users=" << w.user_count
       << " programs=" << w.program_count
       << " nsize=" << cfg.neighborhood_size
       << " storage_mb=" << cfg.per_peer_storage.byte_count() / 1e6
       << " warmup_h=" << hours(cfg.warmup)
       << " lfu_h=" << hours(cfg.strategy.lfu_history)
       << " shadow_matrix=" << cfg.shadow_matrix
       << " policy_switch=" << cfg.policy_switch;
  if (cfg.policy_switch) {
    line << " switch_window_h=" << hours(cfg.switch_window)
         << " switch_k=" << cfg.switch_windows_k;
  }
  line << " tiers=" << cfg.tiers.size();
  if (!cfg.tiers.empty()) {
    line << " prefetch=" << core::to_string(cfg.prefetch.kind)
         << " refresh_h=" << hours(cfg.prefetch.refresh);
  }
  std::string adaptors;
  if (c.spec.flash_crowd.enabled) adaptors += ",flash_crowd";
  if (c.spec.release_waves.enabled) adaptors += ",release_waves";
  if (c.spec.skew.enabled) adaptors += ",skew";
  if (c.spec.storm.enabled) adaptors += ",storm";
  line << " adaptors=" << (adaptors.empty() ? "none" : adaptors.substr(1));
  return line.str();
}

void expect_non_negative(const sim::PeakStats& peak, const char* what) {
  EXPECT_GE(peak.mean.bps(), 0.0) << what;
  EXPECT_GE(peak.q05.bps(), 0.0) << what;
  EXPECT_GE(peak.q95.bps(), 0.0) << what;
  EXPECT_GE(peak.max.bps(), 0.0) << what;
}

class RandomConfig : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConfig, ::testing::Range<std::uint64_t>(1, 51),
                         [](const auto& info) {
                           return "cfg" + std::to_string(info.param);
                         });

TEST_P(RandomConfig, ConservationInvariantsHoldOnEveryReport) {
  const auto c = draw_case(GetParam());
  SCOPED_TRACE(repro_line(GetParam(), c));

  const scenario::ScenarioWorkload workload(c.spec,
                                            c.config.neighborhood_size);
  core::VodSystem streamed(workload.source(), c.config);
  const auto report = streamed.run();

  // --- counter conservation ---------------------------------------------
  EXPECT_GT(report.sessions, 0u);
  EXPECT_GE(report.segments, report.sessions);
  EXPECT_EQ(report.segments,
            report.hits + report.cold_misses + report.busy_misses);
  std::uint64_t sessions = 0, segments = 0, hits = 0, cold = 0, busy = 0,
                denials = 0;
  for (const auto& n : report.neighborhoods) {
    // Each neighborhood conserves its own request flow — including across
    // policy-switch boundaries: a warm swap exchanges cached-set state,
    // never counters, so every segment still lands in exactly one bucket.
    EXPECT_LE(n.hits, report.hits);
    EXPECT_EQ(n.segments, n.hits + n.cold_misses + n.busy_misses);
    EXPECT_EQ(n.sessions == 0, n.hits + n.cold_misses + n.busy_misses == 0);
    sessions += n.sessions;
    segments += n.segments;
    hits += n.hits;
    cold += n.cold_misses;
    busy += n.busy_misses;
    denials += n.admission_denials;
    // ...and never holds more than its capacity.
    EXPECT_LE(n.cache_used, n.cache_capacity);
    expect_non_negative(n.coax_peak, "coax_peak");
    expect_non_negative(n.peer_peak, "peer_peak");
    // Fiber = coax - peer bucket by bucket; peer traffic is a subset of
    // coax traffic, so only summation order can push it below zero.
    EXPECT_GE(n.fiber_peak.mean.bps(), -1e-3);
  }
  EXPECT_EQ(report.sessions, sessions);
  EXPECT_EQ(report.segments, segments);
  EXPECT_EQ(report.hits, hits);
  EXPECT_EQ(report.cold_misses, cold);
  EXPECT_EQ(report.busy_misses, busy);
  EXPECT_EQ(report.admission_denials, denials);

  // --- admission denials ------------------------------------------------
  EXPECT_LE(report.admission_denials, report.sessions);
  // A policy switch can promote a gated admission pair mid-run, so the
  // always-admit zero only binds when switching is off.
  if ((report.admission_policy == core::AdmissionKind::Always &&
       !c.config.policy_switch) ||
      report.strategy == core::StrategyKind::None) {
    EXPECT_EQ(report.admission_denials, 0u);
  }
  if (report.strategy == core::StrategyKind::None) {
    EXPECT_EQ(report.hits, 0u);
    EXPECT_EQ(report.fills, 0u);
  }

  // --- shadow matrix ----------------------------------------------------
  if (c.config.shadow_matrix) {
    const std::size_t scorers = core::scorer_registry().size() - 1;  // -None
    EXPECT_EQ(report.shadow_matrix.size(),
              scorers * core::admission_registry().size());
  } else {
    EXPECT_TRUE(report.shadow_matrix.empty());
  }

  // --- policy switches --------------------------------------------------
  if (c.config.policy_switch) {
    EXPECT_TRUE(report.policy_switching);
    for (const auto& rec : report.policy_switches) {
      ASSERT_LT(rec.neighborhood, report.neighborhoods.size());
      // The triggering window was a *strict* win.
      EXPECT_GT(rec.window_winner_hits, rec.window_primary_hits);
      // At-switch snapshots are cumulative prefixes of the final counters.
      const auto& n = report.neighborhoods[rec.neighborhood];
      EXPECT_LE(rec.primary_hits, n.hits);
      EXPECT_LE(rec.primary_cold_misses, n.cold_misses);
      EXPECT_LE(rec.primary_busy_misses, n.busy_misses);
      EXPECT_FALSE(rec.from_scorer.empty());
      EXPECT_FALSE(rec.to_scorer.empty());
    }
  } else {
    EXPECT_FALSE(report.policy_switching);
    EXPECT_TRUE(report.policy_switches.empty());
  }
  for (const auto& cell : report.shadow_matrix) {
    const std::string label = cell.scorer + " x " + cell.admission;
    // Shadows replay the same session stream: the flow totals are the
    // primary's, only the hit/miss/denial split may differ.
    EXPECT_EQ(cell.sessions, report.sessions) << label;
    EXPECT_EQ(cell.segments, report.segments) << label;
    EXPECT_EQ(cell.segments,
              cell.hits + cell.cold_misses + cell.busy_misses)
        << label;
    EXPECT_LE(cell.admission_denials, cell.sessions) << label;
    if (cell.admission == "always") {
      EXPECT_EQ(cell.admission_denials, 0u) << label;
    }
    EXPECT_GE(cell.hit_bits, 0.0) << label;
    EXPECT_GE(cell.miss_bits, 0.0) << label;
    EXPECT_GE(cell.hit_ratio(), 0.0) << label;
    EXPECT_LE(cell.hit_ratio(), 1.0) << label;
  }

  // --- byte conservation ------------------------------------------------
  EXPECT_GE(report.server_bits, 0.0);
  EXPECT_GE(report.peer_bits, 0.0);
  EXPECT_GE(report.coax_bits, 0.0);
  if (report.tiers.empty()) {
    EXPECT_NEAR(report.coax_bits, report.peer_bits + report.server_bits,
                1e-6 * report.coax_bits + 1.0);
    EXPECT_EQ(report.total_transfer_cost, 0.0);
  } else {
    // Every coax bit came from a peer or from exactly one tier row (the
    // origin row's bits ARE server_bits): the walk absorbs misses, it
    // never duplicates or drops them.
    double tier_bits = 0.0;
    for (const auto& tier : report.tiers) tier_bits += tier.bits;
    EXPECT_NEAR(report.coax_bits, report.peer_bits + tier_bits,
                1e-6 * report.coax_bits + 1.0);
    EXPECT_EQ(report.tiers.size(), c.config.tiers.size() + 1);
    EXPECT_EQ(report.tiers.back().bits, report.server_bits);
    // Request chain: level l sees what the levels below did not absorb,
    // and the origin serves everything that reaches it.
    std::uint64_t reaching = report.cold_misses + report.busy_misses;
    double cost_sum = 0.0;
    for (const auto& tier : report.tiers) {
      EXPECT_EQ(tier.requests, reaching) << tier.name;
      EXPECT_LE(tier.hits, tier.requests) << tier.name;
      EXPECT_GE(tier.bits, 0.0) << tier.name;
      EXPECT_GE(tier.cost, 0.0) << tier.name;
      reaching -= tier.hits;
      cost_sum += tier.cost;
    }
    EXPECT_EQ(report.tiers.back().hits, report.tiers.back().requests);
    EXPECT_EQ(reaching, 0u);
    EXPECT_NEAR(report.total_transfer_cost, cost_sum,
                1e-9 * (1.0 + cost_sum));
    // A cache tier can only raise the combined hit ratio.
    EXPECT_GE(report.cache_hit_ratio() + 1e-12, report.hit_ratio());
    EXPECT_LE(report.cache_hit_ratio(), 1.0);
  }
  EXPECT_GE(report.hit_ratio(), 0.0);
  EXPECT_LE(report.hit_ratio(), 1.0);
  EXPECT_GE(report.byte_hit_ratio(), 0.0);
  EXPECT_LE(report.byte_hit_ratio(), 1.0);
  EXPECT_GE(report.wiped_bytes, 0.0);

  // --- meters -----------------------------------------------------------
  expect_non_negative(report.server_peak, "server_peak");
  expect_non_negative(report.coax_peak_pooled, "coax_peak_pooled");
  ASSERT_EQ(report.server_hourly.size(), 24u);
  for (const auto& rate : report.server_hourly) {
    EXPECT_GE(rate.bps(), 0.0);
  }

  // --- streamed == materialized report bytes ----------------------------
  const auto trace = trace::materialize(workload.source());
  core::VodSystem materialized(trace, c.config);
  EXPECT_EQ(core::to_json(materialized.run(), true),
            core::to_json(report, true))
      << "materialized twin diverged from the streamed run";
}

// The zero-allocation steady-state audit, run over the same seeded config
// space as the conservation sweep.  Every scorer and admission policy is
// in scope — since the shadow-matrix work flattened the Oracle, GlobalLFU,
// and GreedyDual auxiliary state, no registered policy allocates per event
// — but each draw is still clamped: the storm / flash-crowd / release-wave
// adaptors and tier levels are dropped (storms reach wipe_peer, which
// returns the emptied-program list; the demand-spike adaptors can push the
// session peak — and thus the slot high-water mark — inside the measured
// final day), and shadow_matrix is forced off (25 shadow caches multiply
// the legitimate late-growth noise; the exact-zero shadow audit lives in
// allocation_audit_test with a warmup designed for it).
//
// Unlike allocation_audit_test — whose designed workload carries every
// container past its high-water mark before the cut, so it asserts an
// exact zero — a random draw can legitimately set a new high-water mark in
// the measured final day (a fluctuation peak in concurrent sessions, a
// tail program first touched late, an LFU history window longer than the
// warmup).  Those are one-shot capacity doublings: O(log peak) for the
// whole run, never O(sessions).  So the fuzzer asserts the contract that
// separates the two regimes: a handful of cold-growth allocations is
// tolerated, but anything scaling with the session count — one alloc per
// event would blow this budget hundreds of times over — fails.
TEST_P(RandomConfig, SteadyStateShardLoopIsAllocationFree) {
  auto c = draw_case(GetParam());
  c.config.shadow_matrix = false;
  c.config.policy_switch = false;  // same clamp reason as shadow_matrix
  c.config.tiers.clear();
  c.config.peer_failures.clear();  // apply_storm expanded storms into here
  c.spec.storm.enabled = false;
  c.spec.flash_crowd.enabled = false;
  c.spec.release_waves.enabled = false;
  SCOPED_TRACE(repro_line(GetParam(), c));

  const scenario::ScenarioWorkload workload(c.spec,
                                            c.config.neighborhood_size);
  const auto trace = trace::materialize(workload.source());
  const auto result = test::audit_shard_allocations(
      trace, c.config, sim::SimTime::days(c.spec.workload.days - 1));
  EXPECT_GT(result.steady_sessions, 0u);
  constexpr std::uint64_t kColdGrowthBudget = 16;
  EXPECT_LE(result.steady_allocs, kColdGrowthBudget)
      << result.steady_allocs << " heap allocations across "
      << result.steady_sessions
      << " steady-state sessions — the hot path is allocating per event, "
         "not just growing to a late high-water mark";
}

}  // namespace
}  // namespace vodcache
