// Zero-allocation steady-state audit (ISSUE 7 acceptance criterion).
//
// The data-oriented shard hot path promises: once warmed up, feeding
// sessions through a shard performs no heap allocations at all — the flat
// tables, pooled arenas, ring buffers, lazy heaps, and scratch vectors all
// recycle at their high-water marks.  This binary replaces ::operator new
// with a counting probe and asserts that promise *exactly* (== 0, not
// "small") for the paper-default policy engine configurations:
//
//   * strategy None (no cache), LRU, and LFU (sliding-window expiry
//     exercises the ring buffer and downward CachedSet re-ranks);
//   * whole-program and segment-granularity admission, Always policy;
//   * replication-on-busy, which adds replica-block arena churn.
//
// The warmup must carry the shard past every high-water mark: two full
// diurnal cycles touch all programs, fill the cache into steady eviction
// churn, and see the prime-time session peak twice; day 3 is measured.
// Everything is seeded, so this test is exactly reproducible — a failure
// means a real allocation crept into the hot path, never noise.
//
// The shadow-matrix case audits every registered scorer and admission at
// once: the shadow matrix rides the same feed() loop, so its 25 (scorer x
// admission) pairs — GlobalLFU's replay view and heaps, the Oracle's future-index
// lookups, the TinyLFU sketch, all of them — must be equally
// allocation-free once warm.  Failure storms stay out of scope
// (wipe_peer returns the emptied-program vector by design).
//
// The stacked-viewer case puts more overlapping sessions on one viewer on
// day 3 than any box carried during warmup.  Viewer playback is never
// blocked, so a box's stream-slot state must not grow with that stack;
// the same number of overlapping sessions on day 1, spread over other
// users, carries the shard's own session tables to that peak in warmup.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "alloc_audit_support.hpp"
#include "alloc_probe.hpp"
#include "cache/future_index.hpp"
#include "test_support.hpp"
#include "trace/generator.hpp"

VODCACHE_DEFINE_ALLOC_PROBE();

namespace vodcache {
namespace {

trace::Trace audit_trace() {
  trace::GeneratorConfig workload;
  workload.days = 3;
  workload.user_count = 200;
  workload.program_count = 60;
  workload.sessions_per_user_per_day = 5.0;
  workload.seed = 20260808;
  return trace::generate_power_info_like(workload);
}

// audit_trace() plus kStack overlapping sessions on day 1, one each for
// users 1..kStack at prime time, and kStack overlapping sessions on day 3,
// all for user 0, in the small hours.
trace::Trace stacked_viewer_trace() {
  constexpr int kStack = 12;
  const auto base = audit_trace();
  const auto& catalog = base.catalog();
  ProgramId program{0};
  while (catalog.introduced(program) > sim::SimTime::days(0) ||
         catalog.length(program) < sim::SimTime::minutes(30)) {
    program = ProgramId{program.value() + 1};
  }
  std::vector<trace::SessionRecord> sessions = base.sessions();
  const auto stack = [&](sim::SimTime at, bool one_viewer) {
    for (int i = 0; i < kStack; ++i) {
      const UserId user{one_viewer ? 0u : static_cast<std::uint32_t>(i + 1)};
      sessions.push_back({at + sim::SimTime::seconds(i), user, program,
                          sim::SimTime::minutes(30)});
    }
  };
  stack(sim::SimTime::days(1) + sim::SimTime::hours(20), false);
  stack(sim::SimTime::days(2) + sim::SimTime::hours(4), true);
  std::stable_sort(sessions.begin(), sessions.end(),
                   [](const auto& a, const auto& b) {
                     return a.start < b.start;
                   });
  trace::Trace stacked(catalog, std::move(sessions), base.user_count(),
                       base.horizon());
  stacked.validate();
  return stacked;
}

core::SystemConfig audit_config(core::StrategyKind strategy) {
  core::SystemConfig config;
  config.neighborhood_size = 200;  // one shard holds the whole population
  // Small enough that ~60 programs of ~1.8 GB overflow it: eviction churn
  // is part of the audited steady state.
  config.per_peer_storage = DataSize::megabytes(200);
  config.strategy.kind = strategy;
  config.strategy.lfu_history = sim::SimTime::hours(12);
  config.admission_policy.kind = core::AdmissionKind::Always;
  return config;
}

struct AuditCase {
  core::StrategyKind strategy;
  core::CacheAdmission admission;
  bool replicate_on_busy;
  const char* label;
};

// gtest would otherwise print the raw bytes, and with them the address of
// `label`, which moves from run to run: the listed test names would change.
void PrintTo(const AuditCase& c, std::ostream* os) { *os << c.label; }

class AllocationAudit : public ::testing::TestWithParam<AuditCase> {};

INSTANTIATE_TEST_SUITE_P(
    Policies, AllocationAudit,
    ::testing::Values(
        AuditCase{core::StrategyKind::None, core::CacheAdmission::WholeProgram,
                  false, "none"},
        AuditCase{core::StrategyKind::Lru, core::CacheAdmission::WholeProgram,
                  false, "lru_whole"},
        AuditCase{core::StrategyKind::Lfu, core::CacheAdmission::WholeProgram,
                  false, "lfu_whole"},
        AuditCase{core::StrategyKind::Lfu, core::CacheAdmission::Segment,
                  false, "lfu_segment"},
        AuditCase{core::StrategyKind::Lfu, core::CacheAdmission::WholeProgram,
                  true, "lfu_replicate"},
        AuditCase{core::StrategyKind::Lfu, core::CacheAdmission::WholeProgram,
                  false, "lfu_shadow_matrix"},
        AuditCase{core::StrategyKind::Lfu, core::CacheAdmission::WholeProgram,
                  false, "lfu_stacked_viewer"}),
    [](const auto& info) { return std::string(info.param.label); });

TEST_P(AllocationAudit, SteadyStateShardLoopIsAllocationFree) {
  const AuditCase c = GetParam();
  auto config = audit_config(c.strategy);
  config.admission = c.admission;
  config.replicate_on_busy = c.replicate_on_busy;
  // The shadow case rides the whole (scorer x admission) matrix — every
  // shadow's stores, sketches, and admission histories must hit their
  // high-water marks within the same warmup.
  config.shadow_matrix =
      std::string(c.label) == "lfu_shadow_matrix";

  const auto trace = std::string(c.label) == "lfu_stacked_viewer"
                         ? stacked_viewer_trace()
                         : audit_trace();
  const auto result =
      test::audit_shard_allocations(trace, config, sim::SimTime::days(2));

  // The measured region must be a real workload, not an empty tail.
  EXPECT_GT(result.steady_sessions, 200u);
  EXPECT_EQ(result.steady_allocs, 0u)
      << result.steady_allocs << " heap allocations across "
      << result.steady_sessions << " steady-state sessions";
}

// A neighborhood's future index costs nothing before its first access:
// constructing one for the paper's 8,278-program catalog allocates
// nothing, so no per-program container comes back.
TEST(AllocationProbe, FutureIndexConstructionAllocatesNothing) {
  const auto before = test::alloc_count();
  cache::FutureIndex index(8278);
  const auto after = test::alloc_count();
  EXPECT_EQ(after, before);
  index.freeze();
  EXPECT_EQ(index.count_in(ProgramId{8277}, {}, sim::SimTime::days(3)), 0);
}

// The probe itself must count: otherwise a broken override would make the
// audit vacuously green.
TEST(AllocationProbe, CountsOperatorNew) {
  const auto before = test::alloc_count();
  auto* p = new int{42};
  const auto after = test::alloc_count();
  delete p;
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace vodcache
