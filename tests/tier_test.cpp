// Unit + integration tests for the tier subsystem: plan building (window
// lag, capacity, rotation budget, tie-breaks), the serving-level walk
// (lowest level wins, outages skip), and the tiered end-to-end contract
// (byte conservation, cost accounting, degenerate equivalence to the
// two-level world, thread invariance).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/policy_registry.hpp"
#include "core/report_json.hpp"
#include "core/tier_system.hpp"
#include "core/vod_system.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace vodcache::core {
namespace {

// 10-minute programs at 8 Mb/s: exactly 4.8e9 bits (= 600 MB) each, so
// capacity and budget arithmetic in these tests is exact.
constexpr std::int64_t kProgramBits = 600 * 8'000'000LL;

trace::Catalog ten_minute_catalog(std::uint32_t n) {
  return test::uniform_catalog(n, 10);
}

SystemConfig tier_config(std::int64_t hub_capacity_bits,
                         PrefetchKind kind = PrefetchKind::TopPopular) {
  SystemConfig config;
  config.stream_rate = DataRate::megabits_per_second(8.0);
  config.prefetch.kind = kind;
  config.prefetch.refresh = sim::SimTime::hours(1);
  config.tiers.push_back(hfc::TierLevelSpec{});
  config.tiers.back().capacity = DataSize::bits(hub_capacity_bits);
  return config;
}

// One neighborhood under one hub node, so plan contents are easy to state.
hfc::Topology one_hub_topology(const SystemConfig& config) {
  return hfc::Topology::build(100, 100, config.tiers);
}

sim::SimTime in_window(int k) {
  return sim::SimTime::hours(k) + sim::SimTime::minutes(10);
}

// ---------------------------------------------------------- TierPlanBuilder

TEST(TierPlanBuilder, ReactivePlansLagOneWindow) {
  const auto config = tier_config(10 * kProgramBits);
  const auto topology = one_hub_topology(config);
  const auto catalog = ten_minute_catalog(20);

  TierPlanBuilder builder(topology, config, catalog);
  builder.observe(NeighborhoodId{0}, ProgramId{5}, in_window(0));
  TierSystem tiers(topology, config.prefetch.refresh);
  tiers.set_plans(builder.finish(sim::SimTime::hours(3)));

  const auto path = tiers.node_path(NeighborhoodId{0});
  // Window 0 has no previous window to react to...
  EXPECT_EQ(tiers.serving_level(path, ProgramId{5}, in_window(0)),
            std::nullopt);
  // ...window 1 serves what window 0 observed...
  EXPECT_EQ(tiers.serving_level(path, ProgramId{5}, in_window(1)), 0u);
  // ...and an un-observed program never becomes resident.
  EXPECT_EQ(tiers.serving_level(path, ProgramId{6}, in_window(1)),
            std::nullopt);
}

TEST(TierPlanBuilder, OracleServesItsOwnWindow) {
  const auto config = tier_config(10 * kProgramBits, PrefetchKind::Oracle);
  const auto topology = one_hub_topology(config);
  const auto catalog = ten_minute_catalog(20);

  TierPlanBuilder builder(topology, config, catalog);
  builder.observe(NeighborhoodId{0}, ProgramId{5}, in_window(0));
  TierSystem tiers(topology, config.prefetch.refresh);
  tiers.set_plans(builder.finish(sim::SimTime::hours(3)));

  const auto path = tiers.node_path(NeighborhoodId{0});
  EXPECT_EQ(tiers.serving_level(path, ProgramId{5}, in_window(0)), 0u);
  // The demand was only in window 0; window 1's clairvoyant plan is empty.
  EXPECT_EQ(tiers.serving_level(path, ProgramId{5}, in_window(1)),
            std::nullopt);
}

TEST(TierPlanBuilder, CapacityBoundKeepsTopValuesTiesToLowerId) {
  // Room for exactly two programs; demand 3x on program 3, 2x each on 7
  // and 9, 1x on 1.  The pack keeps {3, 7}: highest count first, the 7/9
  // tie broken by the lower id.
  const auto config = tier_config(2 * kProgramBits);
  const auto topology = one_hub_topology(config);
  const auto catalog = ten_minute_catalog(20);

  TierPlanBuilder builder(topology, config, catalog);
  const auto t0 = in_window(0);
  for (int i = 0; i < 3; ++i) builder.observe(NeighborhoodId{0}, ProgramId{3}, t0);
  for (int i = 0; i < 2; ++i) builder.observe(NeighborhoodId{0}, ProgramId{7}, t0);
  for (int i = 0; i < 2; ++i) builder.observe(NeighborhoodId{0}, ProgramId{9}, t0);
  builder.observe(NeighborhoodId{0}, ProgramId{1}, t0);
  TierSystem tiers(topology, config.prefetch.refresh);
  tiers.set_plans(builder.finish(sim::SimTime::hours(2)));

  const auto path = tiers.node_path(NeighborhoodId{0});
  const auto t1 = in_window(1);
  EXPECT_EQ(tiers.serving_level(path, ProgramId{3}, t1), 0u);
  EXPECT_EQ(tiers.serving_level(path, ProgramId{7}, t1), 0u);
  EXPECT_EQ(tiers.serving_level(path, ProgramId{9}, t1), std::nullopt);
  EXPECT_EQ(tiers.serving_level(path, ProgramId{1}, t1), std::nullopt);
}

TEST(TierPlanBuilder, RotationBudgetLimitsNewBytesNotCarriedOnes) {
  // Budget = 1.125 programs of new bytes per refresh; capacity = 2.
  // Window 0 observes {1: 5x, 2: 3x}.  Window 1 can pull only one new
  // program — the higher-valued 1.  Window 1 repeats the demand; window 2
  // carries program 1 budget-free and spends the budget on program 2.
  auto config = tier_config(2 * kProgramBits);
  config.tiers.back().uplink =
      DataRate::bits_per_second(1.125 * kProgramBits / 3600.0);
  const auto topology = one_hub_topology(config);
  const auto catalog = ten_minute_catalog(20);

  TierPlanBuilder builder(topology, config, catalog);
  for (int w = 0; w < 2; ++w) {
    const auto t = in_window(w);
    for (int i = 0; i < 5; ++i) builder.observe(NeighborhoodId{0}, ProgramId{1}, t);
    for (int i = 0; i < 3; ++i) builder.observe(NeighborhoodId{0}, ProgramId{2}, t);
  }
  TierSystem tiers(topology, config.prefetch.refresh);
  tiers.set_plans(builder.finish(sim::SimTime::hours(3)));

  const auto path = tiers.node_path(NeighborhoodId{0});
  EXPECT_EQ(tiers.serving_level(path, ProgramId{1}, in_window(1)), 0u);
  EXPECT_EQ(tiers.serving_level(path, ProgramId{2}, in_window(1)),
            std::nullopt);
  EXPECT_EQ(tiers.serving_level(path, ProgramId{1}, in_window(2)), 0u);
  EXPECT_EQ(tiers.serving_level(path, ProgramId{2}, in_window(2)), 0u);
}

TEST(TierPlanBuilder, DemandStaysPerNode) {
  // Two hub nodes (fan-in 1 over two neighborhoods): neighborhood 0's
  // demand must not leak into node 1's plan.
  SystemConfig config = tier_config(10 * kProgramBits);
  config.tiers.back().fan_in = 1;
  const auto topology = hfc::Topology::build(200, 100, config.tiers);
  const auto catalog = ten_minute_catalog(20);

  TierPlanBuilder builder(topology, config, catalog);
  builder.observe(NeighborhoodId{0}, ProgramId{4}, in_window(0));
  TierSystem tiers(topology, config.prefetch.refresh);
  tiers.set_plans(builder.finish(sim::SimTime::hours(2)));

  EXPECT_EQ(tiers.serving_level(tiers.node_path(NeighborhoodId{0}),
                                ProgramId{4}, in_window(1)),
            0u);
  EXPECT_EQ(tiers.serving_level(tiers.node_path(NeighborhoodId{1}),
                                ProgramId{4}, in_window(1)),
            std::nullopt);
}

// Plans published window by window, as the prepass chain seals epochs,
// must equal the plans finish() packs at once: same resident set at every
// node and window, for both prefetch kinds, with capacity and budget
// binding.
TEST(TierPlanBuilder, PublishedWindowsMatchFinishedPlans) {
  for (const auto kind : {PrefetchKind::TopPopular, PrefetchKind::Oracle}) {
    for (const std::uint64_t seed : {31u, 32u, 33u}) {
      auto config = tier_config(4 * kProgramBits, kind);
      config.tiers.back().fan_in = 1;
      config.tiers.back().uplink =
          DataRate::bits_per_second(2.5 * kProgramBits / 3600.0);
      const auto topology = hfc::Topology::build(300, 100, config.tiers);
      const auto catalog = ten_minute_catalog(12);
      const auto horizon = sim::SimTime::hours(10);
      const std::string repro =
          std::string("repro: TierPlanBuilder.PublishedWindowsMatchFinishedPlans"
                      " prefetch=") +
          (kind == PrefetchKind::Oracle ? "oracle" : "top-popular") +
          " seed=" + std::to_string(seed);

      Rng rng(seed);
      struct Observation {
        NeighborhoodId neighborhood;
        ProgramId program;
        sim::SimTime t;
      };
      std::vector<Observation> observations;
      sim::SimTime t;
      while (true) {
        t += sim::SimTime::seconds(
            static_cast<std::int64_t>(rng.uniform_u64(240)));
        if (t >= horizon) break;
        const auto a = rng.uniform_u64(12);
        const auto b = rng.uniform_u64(12);
        observations.push_back(
            {NeighborhoodId{static_cast<std::uint32_t>(rng.uniform_u64(3))},
             ProgramId{static_cast<std::uint32_t>(std::min(a, b))}, t});
      }

      TierPlanBuilder finished(topology, config, catalog);
      for (const auto& o : observations) {
        finished.observe(o.neighborhood, o.program, o.t);
      }
      TierSystem reference(topology, config.prefetch.refresh);
      reference.set_plans(finished.finish(horizon));

      TierPlanBuilder published(topology, config, catalog);
      TierSystem tiers(topology, config.prefetch.refresh);
      tiers.size_plans(horizon);
      std::size_t next = 0;
      // Seal at random half-hour points; each publish answers lookups up
      // to its time (plus a window ahead for top-popular).
      for (auto through = sim::SimTime::minutes(30); through < horizon;
           through += sim::SimTime::minutes(30)) {
        if (rng.uniform_u64(2) == 0) continue;
        while (next < observations.size() && observations[next].t < through) {
          const auto& o = observations[next++];
          published.observe(o.neighborhood, o.program, o.t);
        }
        published.publish(through, tiers);
        // Oracle plans cover only windows already over.
        const auto last = kind == PrefetchKind::Oracle
                              ? through - config.prefetch.refresh
                              : through;
        for (auto at = sim::SimTime::minutes(10); at <= last;
             at += sim::SimTime::minutes(20)) {
          for (std::uint32_t n = 0; n < 3; ++n) {
            const auto path = tiers.node_path(NeighborhoodId{n});
            for (std::uint32_t p = 0; p < 12; ++p) {
              ASSERT_EQ(tiers.serving_level(path, ProgramId{p}, at),
                        reference.serving_level(path, ProgramId{p}, at))
                  << repro << " through_ms=" << through.millis_count()
                  << " at_ms=" << at.millis_count() << " node=" << n
                  << " program=" << p;
            }
          }
        }
      }
      while (next < observations.size()) {
        const auto& o = observations[next++];
        published.observe(o.neighborhood, o.program, o.t);
      }
      published.publish(
          sim::SimTime::millis(std::numeric_limits<std::int64_t>::max()),
          tiers);
      std::size_t served = 0;
      for (auto at = sim::SimTime::minutes(10);
           at < horizon + sim::SimTime::hours(3);
           at += sim::SimTime::minutes(20)) {
        for (std::uint32_t n = 0; n < 3; ++n) {
          const auto path = tiers.node_path(NeighborhoodId{n});
          for (std::uint32_t p = 0; p < 12; ++p) {
            const auto level = tiers.serving_level(path, ProgramId{p}, at);
            ASSERT_EQ(level, reference.serving_level(path, ProgramId{p}, at))
                << repro << " at_ms=" << at.millis_count() << " node=" << n
                << " program=" << p;
            served += level.has_value() ? 1 : 0;
          }
        }
      }
      EXPECT_GT(served, 0u) << repro;
    }
  }
}

// A shard that reads a window the prepass has not published yet — a
// missing seal edge — fails loudly.
TEST(TierPlanBuilderDeathTest, LookupOfAnUnpublishedWindowAborts) {
  const auto config = tier_config(10 * kProgramBits);
  const auto topology = one_hub_topology(config);
  const auto catalog = ten_minute_catalog(20);

  TierPlanBuilder builder(topology, config, catalog);
  TierSystem tiers(topology, config.prefetch.refresh);
  tiers.size_plans(sim::SimTime::hours(3));
  builder.observe(NeighborhoodId{0}, ProgramId{5}, in_window(0));
  // Every session before 1 h is read: top-popular windows 0 and 1 are
  // packed from complete input.
  builder.publish(sim::SimTime::hours(1), tiers);

  const auto path = tiers.node_path(NeighborhoodId{0});
  EXPECT_EQ(tiers.serving_level(path, ProgramId{5}, in_window(1)), 0u);
  EXPECT_DEATH((void)tiers.serving_level(path, ProgramId{5}, in_window(2)),
               "precondition");
}

// ------------------------------------------------------------- TierSystem

TEST(TierSystem, WalkReturnsLowestServingLevel) {
  // Two levels; hand-authored plans: program 1 at both levels (level 0
  // wins), program 2 only at level 1, program 3 nowhere.
  SystemConfig config = tier_config(10 * kProgramBits);
  config.tiers.back().fan_in = 1;
  config.tiers.push_back(hfc::TierLevelSpec{});
  config.tiers.back().name = "region";
  config.tiers.back().fan_in = 2;
  config.tiers.back().capacity = DataSize::bits(10 * kProgramBits);
  const auto topology = hfc::Topology::build(200, 100, config.tiers);

  TierSystem tiers(topology, config.prefetch.refresh);
  std::vector<LevelPlan> plans(2);
  plans[0] = {{{ProgramId{1}}}, {{}}};        // hub nodes 0 and 1
  plans[1] = {{{ProgramId{1}, ProgramId{2}}}};  // one region node
  tiers.set_plans(std::move(plans));

  const auto path0 = tiers.node_path(NeighborhoodId{0});
  const auto t = in_window(0);
  EXPECT_EQ(tiers.serving_level(path0, ProgramId{1}, t), 0u);
  EXPECT_EQ(tiers.serving_level(path0, ProgramId{2}, t), 1u);
  EXPECT_EQ(tiers.serving_level(path0, ProgramId{3}, t), std::nullopt);
  // Neighborhood 1's hub node is empty, but the shared region still serves.
  const auto path1 = tiers.node_path(NeighborhoodId{1});
  EXPECT_EQ(tiers.serving_level(path1, ProgramId{1}, t), 1u);
}

TEST(TierSystem, OutageSkipsTheLevel) {
  auto config = tier_config(10 * kProgramBits);
  config.tiers.back().outages.push_back(
      {sim::SimTime::hours(1), sim::SimTime::hours(1)});
  const auto topology = one_hub_topology(config);

  TierSystem tiers(topology, config.prefetch.refresh);
  // Resident in every window; only the outage can make it unservable.
  std::vector<LevelPlan> plans(1);
  plans[0] = {{{ProgramId{1}}, {ProgramId{1}}, {ProgramId{1}}}};
  tiers.set_plans(std::move(plans));

  const auto path = tiers.node_path(NeighborhoodId{0});
  EXPECT_EQ(tiers.serving_level(path, ProgramId{1}, in_window(0)), 0u);
  EXPECT_EQ(tiers.serving_level(path, ProgramId{1}, in_window(1)),
            std::nullopt);
  EXPECT_EQ(tiers.serving_level(path, ProgramId{1}, in_window(2)), 0u);
}

TEST(TierSystem, NoPlansMeansOriginAlways) {
  const auto config = tier_config(10 * kProgramBits);
  const auto topology = one_hub_topology(config);
  TierSystem tiers(topology, config.prefetch.refresh);  // PrefetchKind::None
  const auto path = tiers.node_path(NeighborhoodId{0});
  EXPECT_EQ(tiers.serving_level(path, ProgramId{1}, in_window(0)),
            std::nullopt);
}

// ------------------------------------------------------------- end to end

// The end-to-end cases' workload: 3 seeded days of the small population.
trace::GeneratorConfig tier_workload() { return test::small_workload(3, 4242); }

core::SimulationReport run_small(const SystemConfig& config) {
  const auto trace = trace::generate_power_info_like(tier_workload());
  core::VodSystem system(trace, config);
  return system.run();
}

std::string repro(const SystemConfig& config) {
  return test::repro_line(tier_workload(), config);
}

SystemConfig small_system() {
  SystemConfig config;
  config.neighborhood_size = 50;
  config.per_peer_storage = DataSize::megabytes(150);
  config.warmup = sim::SimTime::hours(12);
  return config;
}

TEST(TieredSimulation, ReportCarriesTierRowsAndConservesBytes) {
  auto config = small_system();
  config.tiers.push_back(hfc::TierLevelSpec{});
  config.tiers.back().fan_in = 2;
  config.tiers.back().capacity = DataSize::gigabytes(20);
  config.prefetch.refresh = sim::SimTime::hours(6);
  SCOPED_TRACE(repro(config));
  const auto report = run_small(config);

  ASSERT_EQ(report.tiers.size(), 2u);  // hub + origin
  EXPECT_EQ(report.tiers[0].name, "hub");
  EXPECT_EQ(report.tiers[1].name, "origin");
  EXPECT_GT(report.tiers[0].hits, 0u) << "hub absorbed nothing";

  EXPECT_EQ(report.tiers[0].requests,
            report.cold_misses + report.busy_misses);
  EXPECT_EQ(report.tiers[1].requests,
            report.tiers[0].requests - report.tiers[0].hits);
  EXPECT_EQ(report.tiers[1].hits, report.tiers[1].requests);
  EXPECT_EQ(report.tiers[1].bits, report.server_bits);

  // coax == peer + hub + origin, exactly as two-level conserves
  // coax == peer + server.
  EXPECT_NEAR(report.coax_bits,
              report.peer_bits + report.tiers[0].bits + report.tiers[1].bits,
              1e-6 * report.coax_bits + 1.0);

  // Costs price the bits at each row's rate and sum to the total.
  EXPECT_NEAR(report.tiers[0].cost,
              report.tiers[0].bits / 8e9 * config.tiers[0].cost_per_gb,
              1e-9 * (1.0 + report.tiers[0].cost));
  EXPECT_NEAR(report.tiers[1].cost,
              report.server_bits / 8e9 * config.origin_cost_per_gb,
              1e-9 * (1.0 + report.tiers[1].cost));
  EXPECT_NEAR(report.total_transfer_cost,
              report.tiers[0].cost + report.tiers[1].cost, 1e-12);

  EXPECT_GT(report.cache_hit_ratio(), report.hit_ratio());
}

TEST(TieredSimulation, ZeroCapacityHubMatchesTwoLevelCore) {
  // A hub that can store nothing must not change a single core number —
  // the walk only redirects misses it can serve.
  auto flat = small_system();
  auto tiered = small_system();
  tiered.tiers.push_back(hfc::TierLevelSpec{});
  tiered.tiers.back().capacity = DataSize{};
  SCOPED_TRACE(repro(flat));
  SCOPED_TRACE(repro(tiered));
  const auto flat_report = run_small(flat);
  const auto tiered_report = run_small(tiered);

  EXPECT_EQ(tiered_report.hits, flat_report.hits);
  EXPECT_EQ(tiered_report.cold_misses, flat_report.cold_misses);
  EXPECT_EQ(tiered_report.busy_misses, flat_report.busy_misses);
  EXPECT_EQ(tiered_report.evictions, flat_report.evictions);
  EXPECT_EQ(tiered_report.server_bits, flat_report.server_bits);
  EXPECT_EQ(tiered_report.peer_bits, flat_report.peer_bits);
  EXPECT_EQ(tiered_report.tiers[0].hits, 0u);
  EXPECT_EQ(tiered_report.tiers[0].bits, 0.0);
}

TEST(TieredSimulation, HubAbsorptionLowersTotalCostAtCheaperRate) {
  // Same replay either way (the hub only changes who serves a miss), so
  // with hub bytes priced below origin bytes, absorbing strictly helps.
  auto idle = small_system();
  idle.tiers.push_back(hfc::TierLevelSpec{});
  idle.tiers.back().capacity = DataSize::gigabytes(20);
  idle.prefetch.kind = PrefetchKind::None;
  auto active = idle;
  active.prefetch.kind = PrefetchKind::TopPopular;
  active.prefetch.refresh = sim::SimTime::hours(6);
  SCOPED_TRACE(repro(idle));
  SCOPED_TRACE(repro(active));
  const auto idle_report = run_small(idle);
  const auto active_report = run_small(active);

  EXPECT_EQ(idle_report.tiers[0].hits, 0u);
  EXPECT_GT(active_report.tiers[0].hits, 0u);
  EXPECT_EQ(idle_report.hits, active_report.hits);
  EXPECT_LT(active_report.total_transfer_cost,
            idle_report.total_transfer_cost);
}

TEST(TieredSimulation, ByteIdenticalAcrossThreadCounts) {
  auto config = small_system();
  config.tiers.push_back(hfc::TierLevelSpec{});
  config.tiers.back().fan_in = 2;
  config.tiers.back().capacity = DataSize::gigabytes(20);
  config.tiers.back().outages.push_back(
      {sim::SimTime::hours(30), sim::SimTime::hours(4)});
  config.prefetch.refresh = sim::SimTime::hours(6);

  const auto workload = test::small_workload(3);
  const auto trace = trace::generate_power_info_like(workload);
  std::string reference;
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    auto run = config;
    run.threads = threads;
    SCOPED_TRACE(test::repro_line(workload, run));
    core::VodSystem system(trace, run);
    const auto json = core::to_json(system.run(), true);
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace vodcache::core
