// Shadow-matrix acceptance suite (the cells core/index_server.hpp owns).
//
// The shadow matrix's whole claim is *exact equivalence*: one pass carrying
// every registered (scorer x admission) pair as a shadow cache must emit,
// per pair, the same hit/miss/denial counters a standalone run of that
// pair would produce — while the primary policy's report stays
// byte-identical to a run with shadows off.  This suite pins both halves
// exhaustively at test scale (bench_policy_matrix's cross-check mode is
// the bench-scale spot check):
//
//  * every cell of the matrix vs its standalone run, all 8 counters, in
//    each of 8 replay modes (whole-program vs segment admission x
//    replicate-on-busy off/on x no failures vs two failure waves), and
//    with live policy switching on (a switch changes which cell is the
//    primary and moves no state, so every row stays standalone);
//  * the shadow matrix itself is bit-identical across worker thread
//    counts {1, 2, 8, 16} (per-shard single-owner shadows, fixed-order
//    merge);
//  * the primary report with the shadow section stripped serializes to
//    exactly the bytes of a shadow-off run, for every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/policy_registry.hpp"
#include "core/report_json.hpp"
#include "core/vod_system.hpp"
#include "test_support.hpp"
#include "trace/generator.hpp"

namespace vodcache::core {
namespace {

trace::Trace shadow_trace() {
  auto workload = test::small_workload(3, 20260807);
  workload.user_count = 400;  // 4 neighborhoods: the merge order matters
  workload.sessions_per_user_per_day = 5.0;
  return trace::generate_power_info_like(workload);
}

SystemConfig shadow_config() {
  SystemConfig config;
  config.neighborhood_size = 100;
  // Small enough that eviction pressure is real: shadows must disagree
  // with each other (and with the primary) for the equivalence check to
  // mean anything.
  config.per_peer_storage = DataSize::megabytes(400);
  config.strategy.kind = StrategyKind::Lfu;
  config.strategy.lfu_history = sim::SimTime::hours(24);
  config.warmup = sim::SimTime::days(1);
  // Tight enough that the coax gates actually refuse during the evening
  // peak of a 100-peer neighborhood.
  config.coax.downstream_low = DataRate::megabits_per_second(60);
  config.coax.tv_broadcast = DataRate::megabits_per_second(3);
  config.admission_policy.headroom_fraction = 0.3;
  return config;
}

const ShadowCellReport* find_cell(const SimulationReport& report,
                                  const std::string& scorer,
                                  const std::string& admission) {
  for (const auto& cell : report.shadow_matrix) {
    if (cell.scorer == scorer && cell.admission == admission) return &cell;
  }
  return nullptr;
}

// The replay modes whose branches the shadow cells must reproduce: both
// admission granularities, with and without replicate-on-busy, with and
// without peer-failure waves (two waves wipe about half the peers), and
// whole-program admission under live policy switching.
struct ModeCase {
  const char* name;
  CacheAdmission admission;
  bool replicate_on_busy;
  bool failures;
  bool switching = false;
};

// Without this, gtest lists the parameter as its raw bytes, the first
// eight of which are the address of `name`: the listed name would change
// from one build to the next.
void PrintTo(const ModeCase& c, std::ostream* os) { *os << c.name; }

const ModeCase kModes[] = {
    {"WholeProgram", CacheAdmission::WholeProgram, false, false},
    {"WholeProgramFailures", CacheAdmission::WholeProgram, false, true},
    {"WholeProgramReplicate", CacheAdmission::WholeProgram, true, false},
    {"WholeProgramReplicateFailures", CacheAdmission::WholeProgram, true,
     true},
    {"Segment", CacheAdmission::Segment, false, false},
    {"SegmentFailures", CacheAdmission::Segment, false, true},
    {"SegmentReplicate", CacheAdmission::Segment, true, false},
    {"SegmentReplicateFailures", CacheAdmission::Segment, true, true},
    {"WholeProgramSwitching", CacheAdmission::WholeProgram, false, false,
     true},
};

SystemConfig mode_config(const ModeCase& mode) {
  auto config = shadow_config();
  config.admission = mode.admission;
  config.replicate_on_busy = mode.replicate_on_busy;
  if (mode.failures) {
    config.peer_failures.push_back({sim::SimTime::hours(30), 0.25, 7});
    config.peer_failures.push_back({sim::SimTime::hours(50), 0.3, 8});
  }
  if (mode.switching) {
    // Short windows and k = 1 make neighborhoods switch repeatedly.
    config.policy_switch = true;
    config.switch_window = sim::SimTime::hours(3);
    config.switch_windows_k = 1;
  }
  return config;
}

class ShadowBankModes : public ::testing::TestWithParam<ModeCase> {};

// Every (scorer x admission) cell of one shadow pass must reproduce the
// counters of a standalone run of that pair — the registry sweep the
// single pass replaces — in every replay mode.
TEST_P(ShadowBankModes, EveryCellMatchesItsStandaloneRun) {
  const ModeCase& mode = GetParam();
  const auto trace = shadow_trace();
  auto config = mode_config(mode);
  config.shadow_matrix = true;
  config.threads = 2;
  VodSystem shadow_system(trace, config);
  const auto shadow_report = shadow_system.run();

  const std::size_t scorers = scorer_registry().size() - 1;  // minus None
  ASSERT_EQ(shadow_report.shadow_matrix.size(),
            scorers * admission_registry().size());
  if (mode.failures) {
    EXPECT_GT(shadow_report.peer_failures, 0u);
  } else {
    EXPECT_EQ(shadow_report.peer_failures, 0u);
  }
  if (mode.switching) {
    // Rows must stay standalone across repeated promotions, so some
    // neighborhood has to switch at least twice.
    std::map<std::uint32_t, int> switches;
    int most = 0;
    for (const auto& rec : shadow_report.policy_switches) {
      most = std::max(most, ++switches[rec.neighborhood]);
    }
    EXPECT_GE(most, 2);
  }

  for (const auto& scorer : scorer_registry()) {
    if (scorer.kind == StrategyKind::None) continue;
    for (const auto& admission : admission_registry()) {
      const auto* cell =
          find_cell(shadow_report, scorer.display, admission.display);
      ASSERT_NE(cell, nullptr)
          << scorer.display << " x " << admission.display;

      auto standalone_config = mode_config(mode);
      standalone_config.policy_switch = false;
      standalone_config.strategy.kind = scorer.kind;
      standalone_config.admission_policy.kind = admission.kind;
      VodSystem standalone(trace, standalone_config);
      const auto real = standalone.run();

      const std::string label =
          std::string(scorer.display) + " x " + admission.display;
      EXPECT_EQ(cell->sessions, real.sessions) << label;
      EXPECT_EQ(cell->segments, real.segments) << label;
      EXPECT_EQ(cell->hits, real.hits) << label;
      EXPECT_EQ(cell->cold_misses, real.cold_misses) << label;
      EXPECT_EQ(cell->busy_misses, real.busy_misses) << label;
      EXPECT_EQ(cell->evictions, real.evictions) << label;
      EXPECT_EQ(cell->fills, real.fills) << label;
      EXPECT_EQ(cell->admission_denials, real.admission_denials) << label;
    }
  }

  // The workload must actually separate the pairs, or the equality above
  // is vacuous: the always column and a gated column must disagree
  // somewhere, and at least one gate must have refused something.
  const auto* always = find_cell(shadow_report, "LRU", "always");
  const auto* gated = find_cell(shadow_report, "LRU", "second-hit");
  ASSERT_NE(always, nullptr);
  ASSERT_NE(gated, nullptr);
  EXPECT_NE(always->fills, gated->fills);
  EXPECT_GT(gated->admission_denials, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ShadowBankModes, ::testing::ValuesIn(kModes),
    [](const ::testing::TestParamInfo<ModeCase>& info) {
      return std::string(info.param.name);
    });

// The shadow matrix is merged shard-by-shard in shard order, so every
// worker thread count must produce the identical report — shadows add no
// cross-shard state.
TEST(ShadowBank, MatrixIsBitIdenticalAcrossThreadCounts) {
  const auto trace = shadow_trace();
  auto config = shadow_config();
  config.shadow_matrix = true;

  config.threads = 1;
  VodSystem reference_system(trace, config);
  const std::string reference = to_json(reference_system.run());

  for (const std::uint32_t threads : {2u, 8u, 16u}) {
    config.threads = threads;
    VodSystem system(trace, config);
    EXPECT_EQ(to_json(system.run()), reference)
        << "threads=" << threads;
  }
}

// Shadows observe; they must not perturb.  Stripping the shadow section
// from a shadow-on report leaves exactly the bytes of a shadow-off run —
// the primary's placement, metering, and counters are untouched — at
// every thread count, for a caching primary and for the no-cache one.
TEST(ShadowBank, PrimaryReportByteIdenticalWithShadowsOn) {
  const auto trace = shadow_trace();
  for (const StrategyKind kind : {StrategyKind::Lfu, StrategyKind::None}) {
    auto config = shadow_config();
    config.strategy.kind = kind;

    config.shadow_matrix = false;
    config.threads = 1;
    VodSystem baseline_system(trace, config);
    const auto baseline = baseline_system.run();
    const std::string baseline_json = to_json(baseline);
    const std::string baseline_text = baseline.to_string();

    for (const std::uint32_t threads : {1u, 2u, 8u, 16u}) {
      auto shadow_cfg = config;
      shadow_cfg.shadow_matrix = true;
      shadow_cfg.threads = threads;
      VodSystem system(trace, shadow_cfg);
      auto report = system.run();
      const std::string label = std::string(to_string(kind)) +
                                " threads=" + std::to_string(threads);
      EXPECT_FALSE(report.shadow_matrix.empty()) << label;
      report.shadow_matrix.clear();
      EXPECT_EQ(to_json(report), baseline_json) << label;
      EXPECT_EQ(report.to_string(), baseline_text) << label;
    }
  }
}

}  // namespace
}  // namespace vodcache::core
