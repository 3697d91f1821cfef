// The work-stealing executor's test battery (the safety half of the
// job-graph tentpole): random-DAG topological-order fuzzing, completion
// invariants, steal-under-contention stress, exception propagation, and a
// pinned diamond-DAG memory-visibility regression.  The sharded simulation
// builds its determinism argument on the guarantees pinned here — a node
// runs exactly once, after every predecessor completed, with the
// predecessors' writes visible.
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/job_executor.hpp"
#include "core/job_graph.hpp"
#include "util/rng.hpp"

namespace vodcache::core {
namespace {

// The one line a failing stress iteration prints (through SCOPED_TRACE)
// to rerun it: the test, then its draws as key=value pairs.
std::string repro(const char* test, const std::string& draws) {
  return std::string("repro: JobExecutor.") + test + " " + draws;
}

// ------------------------------------------------------------- JobGraph

TEST(JobGraph, CsrAdjacencyMatchesDeclaredEdges) {
  JobGraph graph;
  const JobId a = graph.add(JobKind::Feed, {}, "a");
  const JobId b = graph.add(JobKind::Feed, {}, "b");
  const JobId c = graph.add(JobKind::Feed, {}, "c");
  graph.depend(a, b);
  graph.depend(a, c);
  graph.depend(b, c);
  graph.finalize();

  EXPECT_EQ(graph.node_count(), 3u);
  EXPECT_EQ(graph.dependency_count(a), 0u);
  EXPECT_EQ(graph.dependency_count(b), 1u);
  EXPECT_EQ(graph.dependency_count(c), 2u);
  EXPECT_EQ(graph.children(a).size(), 2u);
  EXPECT_EQ(graph.children(b).size(), 1u);
  EXPECT_EQ(graph.children(b)[0], c);
  EXPECT_TRUE(graph.children(c).empty());
  EXPECT_EQ(graph.name(b), "b");
}

// finalize() keeps each node's children in depend() order, whatever other
// parents' edges fall between.  The replay relies on it: it declares the
// prepass chain's edges last, so a worker finishing epoch e (it runs the
// child pushed last first) runs epoch e + 1 next.
TEST(JobGraph, ChildrenKeepDependOrder) {
  JobGraph graph;
  const JobId parent = graph.add(JobKind::Prepass, {}, "parent");
  const JobId other = graph.add(JobKind::Demux, {}, "other");
  std::vector<JobId> kids;
  for (int i = 0; i < 5; ++i) {
    kids.push_back(graph.add(JobKind::Feed, {}, "kid" + std::to_string(i)));
  }
  graph.depend(parent, kids[3]);
  graph.depend(other, kids[0]);
  graph.depend(parent, kids[1]);
  graph.depend(parent, kids[4]);
  graph.depend(other, kids[2]);
  graph.depend(parent, kids[0]);
  graph.finalize();

  const auto children = graph.children(parent);
  EXPECT_EQ(std::vector<JobId>(children.begin(), children.end()),
            (std::vector<JobId>{kids[3], kids[1], kids[4], kids[0]}));
  const auto others = graph.children(other);
  EXPECT_EQ(std::vector<JobId>(others.begin(), others.end()),
            (std::vector<JobId>{kids[0], kids[2]}));
}

TEST(JobGraph, FinalizeThrowsOnCycleNamingANode) {
  JobGraph graph;
  const JobId a = graph.add(JobKind::Feed, {}, "ouroboros-head");
  const JobId b = graph.add(JobKind::Feed, {}, "ouroboros-tail");
  graph.depend(a, b);
  graph.depend(b, a);
  try {
    graph.finalize();
    FAIL() << "cycle not detected";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("ouroboros"), std::string::npos);
  }
}

TEST(JobGraph, MutationAfterFinalizeReopensTheGraph) {
  JobGraph graph;
  const JobId a = graph.add(JobKind::Feed, {});
  graph.finalize();
  EXPECT_TRUE(graph.children(a).empty());
  const JobId b = graph.add(JobKind::Feed, {});
  graph.depend(a, b);
  graph.finalize();
  EXPECT_EQ(graph.dependency_count(b), 1u);
}

// ---------------------------------------------------------- JobExecutor

TEST(JobExecutor, EmptyGraphRunsToCompletion) {
  JobGraph graph;
  JobExecutor executor(4);
  const ExecutorStats stats = executor.run(graph);
  EXPECT_EQ(stats.executed, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST(JobExecutor, GraphIsReusableAcrossRuns) {
  std::atomic<int> runs{0};
  JobGraph graph;
  const JobId a = graph.add(JobKind::Feed, [&] { runs.fetch_add(1); });
  const JobId b = graph.add(JobKind::Feed, [&] { runs.fetch_add(1); });
  graph.depend(a, b);
  JobExecutor executor(2);
  for (int round = 0; round < 3; ++round) {
    const ExecutorStats stats = executor.run(graph);
    EXPECT_EQ(stats.executed, 2u);
  }
  EXPECT_EQ(runs.load(), 6);
}

// Every node runs exactly once and strictly after each of its declared
// predecessors, across ~50 random DAG shapes x random worker counts.  The
// per-node completion stamps come from one shared atomic counter: any
// stamp taken inside a predecessor's closure precedes any stamp taken in a
// successor's, because the executor promises the whole closure completed
// (with a happens-before edge) first.
TEST(JobExecutor, RandomDagsRespectTopologicalOrder) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    const auto nodes =
        static_cast<std::size_t>(2 + rng.uniform_u64(60));  // 2..61
    const double edge_p = 0.05 + 0.25 * rng.uniform_double();
    const std::uint32_t worker_choices[] = {1, 2, 3, 4, 8, 16};
    const auto workers = worker_choices[rng.uniform_u64(6)];
    // The seed is also the iteration: Rng(seed) redraws the whole DAG.
    SCOPED_TRACE(repro("RandomDagsRespectTopologicalOrder",
                       "seed=" + std::to_string(seed) +
                           " workers=" + std::to_string(workers) +
                           " iteration=" + std::to_string(seed)));

    std::vector<std::atomic<std::uint32_t>> ran(nodes);
    for (auto& r : ran) r.store(0);
    std::vector<std::uint64_t> stamp(nodes, 0);
    std::atomic<std::uint64_t> ticket{0};

    JobGraph graph;
    for (std::size_t n = 0; n < nodes; ++n) {
      graph.add(JobKind::Feed, [&, n] {
        ran[n].fetch_add(1);
        stamp[n] = ticket.fetch_add(1) + 1;
      });
    }
    // Edges only from lower to higher index: acyclic by construction.
    std::vector<std::pair<JobId, JobId>> edges;
    for (std::size_t a = 0; a < nodes; ++a) {
      for (std::size_t b = a + 1; b < nodes; ++b) {
        if (rng.bernoulli(edge_p)) {
          graph.depend(static_cast<JobId>(a), static_cast<JobId>(b));
          edges.emplace_back(static_cast<JobId>(a), static_cast<JobId>(b));
        }
      }
    }

    JobExecutor executor(workers);
    const ExecutorStats stats = executor.run(graph);

    ASSERT_EQ(stats.executed, nodes);
    ASSERT_EQ(stats.cancelled, 0u);
    for (std::size_t n = 0; n < nodes; ++n) {
      ASSERT_EQ(ran[n].load(), 1u) << "node " << n;
      ASSERT_GT(stamp[n], 0u) << "node " << n;
    }
    for (const auto& [parent, child] : edges) {
      ASSERT_LT(stamp[parent], stamp[child])
          << "node " << child << " ran before its dependency " << parent;
    }
  }
}

// One root fans out into a horde of tiny tasks, all initially queued on the
// deque of whichever worker ran the root — every other worker has to steal
// to participate.  Retried because a pathologically fast owner could in
// principle drain the whole horde before anyone else wakes.  Nothing is
// drawn, so the repro line has no seed.
TEST(JobExecutor, StealsUnderContention) {
  constexpr std::uint32_t kWorkers = 8;
  constexpr std::size_t kTasks = 4000;
  constexpr int kAttempts = 5;
  const std::string shape = "workers=" + std::to_string(kWorkers) +
                            " tasks=" + std::to_string(kTasks);
  std::uint64_t steals = 0;
  for (int attempt = 0; attempt < kAttempts && steals == 0; ++attempt) {
    SCOPED_TRACE(repro("StealsUnderContention",
                       shape + " iteration=" + std::to_string(attempt)));
    std::atomic<std::uint64_t> sum{0};
    JobGraph graph;
    const JobId root = graph.add(JobKind::Feed, {});
    for (std::size_t n = 0; n < kTasks; ++n) {
      const JobId task = graph.add(JobKind::Feed, [&sum, n] {
        // Enough work per task that the horde outlives worker wakeup.
        std::uint64_t h = n;
        for (int i = 0; i < 400; ++i) h = h * 6364136223846793005ull + 1;
        sum.fetch_add(h == 0 ? 1 : 2, std::memory_order_relaxed);
      });
      graph.depend(root, task);
    }
    JobExecutor executor(kWorkers);
    const ExecutorStats stats = executor.run(graph);
    ASSERT_EQ(stats.executed, kTasks + 1);
    ASSERT_EQ(sum.load(), 2 * kTasks);
    ASSERT_EQ(stats.worker_busy_ms.size(), kWorkers);
    steals = stats.steals;
  }
  EXPECT_GT(steals, 0u) << repro("StealsUnderContention",
                                 shape + " iterations=" +
                                     std::to_string(kAttempts));
}

TEST(JobExecutor, ExceptionPropagatesAndCancelsDependents) {
  std::atomic<bool> dependent_ran{false};
  std::atomic<bool> independent_ran{false};
  JobGraph graph;
  const JobId boom =
      graph.add(JobKind::Feed, [] { throw std::runtime_error("segment fault (the VOD kind)"); });
  const JobId dependent = graph.add(JobKind::Feed, [&] { dependent_ran.store(true); });
  graph.depend(boom, dependent);
  // An independent root may or may not run before the failure is noticed —
  // either is fine; the contract is only that *dependents* of the thrower
  // never run.
  graph.add(JobKind::Feed, [&] { independent_ran.store(true); });

  JobExecutor executor(2);
  try {
    executor.run(graph);
    FAIL() << "exception not propagated";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "segment fault (the VOD kind)");
  }
  EXPECT_FALSE(dependent_ran.load());
}

TEST(JobExecutor, ExceptionStatsAccountForEveryNode) {
  JobGraph graph;
  const JobId boom = graph.add(JobKind::Feed, [] { throw std::runtime_error("boom"); });
  JobId prev = boom;
  constexpr std::size_t kChain = 20;
  for (std::size_t n = 0; n < kChain; ++n) {
    const JobId next = graph.add(JobKind::Feed, [] {});
    graph.depend(prev, next);
    prev = next;
  }
  JobExecutor executor(4);
  try {
    executor.run(graph);
    FAIL() << "exception not propagated";
  } catch (const std::runtime_error&) {
  }
  // The graph must be reusable (and consistent) after a failed run: the
  // executor's per-run state is its own.
  EXPECT_EQ(graph.node_count(), kChain + 1);
  EXPECT_EQ(graph.children(boom).size(), 1u);
  EXPECT_EQ(graph.dependency_count(prev), 1u);
}

// Pinned regression for the memory-visibility guarantee: a diamond's sink
// must observe both branches' plain (non-atomic) writes, and the branches
// must observe the root's.  Any missing acquire/release in the executor's
// hand-off turns this into a torn read — and a TSan finding.
TEST(JobExecutor, DiamondSinkSeesAllPredecessorWrites) {
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    std::uint64_t root_value = 0;
    std::uint64_t left_value = 0;
    std::uint64_t right_value = 0;
    std::uint64_t sink_sum = 0;

    JobGraph graph;
    const JobId root = graph.add(JobKind::Feed, [&] { root_value = 41; });
    const JobId left = graph.add(JobKind::Feed, [&] { left_value = root_value + 1; });
    const JobId right = graph.add(JobKind::Feed, [&] { right_value = root_value * 2; });
    const JobId sink = graph.add(JobKind::Feed, [&] { sink_sum = left_value + right_value; });
    graph.depend(root, left);
    graph.depend(root, right);
    graph.depend(left, sink);
    graph.depend(right, sink);

    JobExecutor executor(4);
    const ExecutorStats stats = executor.run(graph);
    ASSERT_EQ(stats.executed, 4u);
    ASSERT_EQ(sink_sum, 42u + 82u) << "round " << round;
  }
}

// A long dependency chain mutating one plain counter: exactly the shape of
// a shard's chunk chain (feed[s][k-1] -> feed[s][k]), which the simulation
// relies on for single-owner access to per-shard state.
TEST(JobExecutor, ChainMutatesSharedStateWithoutSynchronization) {
  constexpr std::size_t kLinks = 500;
  std::uint64_t counter = 0;
  JobGraph graph;
  JobId prev = graph.add(JobKind::Feed, [&] { ++counter; });
  for (std::size_t n = 1; n < kLinks; ++n) {
    const JobId next = graph.add(JobKind::Feed, [&] { ++counter; });
    graph.depend(prev, next);
    prev = next;
  }
  JobExecutor executor(8);
  const ExecutorStats stats = executor.run(graph);
  EXPECT_EQ(stats.executed, kLinks);
  EXPECT_EQ(counter, kLinks);
}

TEST(JobExecutor, UtilizationIsAFractionAndBusyTimeIsTracked) {
  JobGraph graph;
  for (int n = 0; n < 64; ++n) {
    graph.add(JobKind::Feed, [] {
      volatile std::uint64_t x = 0;
      for (int i = 0; i < 20000; ++i) x = x + static_cast<std::uint64_t>(i);
    });
  }
  JobExecutor executor(2);
  const ExecutorStats stats = executor.run(graph);
  EXPECT_EQ(stats.executed, 64u);
  EXPECT_GT(stats.wall_ms, 0.0);
  EXPECT_GT(stats.utilization(), 0.0);
  EXPECT_LE(stats.utilization(), 1.0 + 1e-9);
}

// Busy time per node kind is the per-worker busy time cut another way:
// each closure's time lands in its worker's total and its kind's, so the
// two sums agree, and a kind with no nodes reads 0.
TEST(JobExecutor, BusyTimeByKindSumsToWorkerBusyTime) {
  constexpr JobKind kKinds[] = {JobKind::Demux, JobKind::Prepass,
                                JobKind::Feed, JobKind::Merge};
  for (const std::uint32_t workers : {1u, 3u}) {
    SCOPED_TRACE(repro("BusyTimeByKindSumsToWorkerBusyTime",
                       "workers=" + std::to_string(workers)));
    JobGraph graph;
    for (int n = 0; n < 48; ++n) {
      graph.add(kKinds[n % 4], [] {
        volatile std::uint64_t x = 0;
        for (int i = 0; i < 20000; ++i) x = x + static_cast<std::uint64_t>(i);
      });
    }
    JobExecutor executor(workers);
    const ExecutorStats stats = executor.run(graph);
    double by_worker = 0.0;
    for (const double ms : stats.worker_busy_ms) by_worker += ms;
    double by_kind = 0.0;
    for (const double ms : stats.kind_busy_ms) by_kind += ms;
    EXPECT_NEAR(by_kind, by_worker, 1e-9 * by_worker);
    const auto busy = [&](JobKind kind) {
      return stats.kind_busy_ms[static_cast<std::size_t>(kind)];
    };
    for (const JobKind kind : kKinds) {
      EXPECT_GT(busy(kind), 0.0) << job_kind_name(kind);
    }
    EXPECT_EQ(busy(JobKind::Finish), 0.0);
  }
}

}  // namespace
}  // namespace vodcache::core
