// JobExecutor: a work-stealing thread-pool executor over a JobGraph.
//
// Each worker owns a deque of ready jobs: it pushes newly unblocked
// children onto its own deque and pops from the back (depth-first — keeps
// a shard's chunk chain hot on one worker), and when its deque runs dry it
// steals from the *front* of another worker's deque (breadth-first — a
// thief takes the work least related to the victim's current locality).
// Worker 0 is the caller: run() blocks and participates, so an executor
// with `workers == 1` runs the whole graph inline on the calling thread
// with no pool at all — one worker and many execute the same code.
//
// Correctness is carried entirely by the graph's edges, not by scheduling
// order: a job is pushed only when its last dependency finishes
// (fetch_sub acq_rel on the per-run pending count), and every queue
// hand-off goes through a mutex, so a job observes all its predecessors'
// writes and TSan can see the synchronization.  Which worker runs which
// job — and every steal — is nondeterministic; anything that must be
// deterministic must be sequenced by edges (the sharded simulation's
// determinism argument is built on exactly that).
//
// Failure: the first job to throw is captured, the run is cancelled —
// jobs not yet started are drained without executing — and run() rethrows
// after the pool settles.  The graph is reusable afterwards.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/job_graph.hpp"

namespace vodcache::core {

// One run's scheduling observability — fed to BENCH_scaling.json.
struct ExecutorStats {
  std::uint64_t executed = 0;   // jobs whose closure actually ran
  std::uint64_t cancelled = 0;  // jobs skipped after a failure
  std::uint64_t steals = 0;     // successful pops from another's deque
  double wall_ms = 0.0;
  std::vector<double> worker_busy_ms;  // per worker, closure time only
  // The same closure time by node kind, indexed by JobKind.
  std::array<double, kJobKinds> kind_busy_ms{};

  // Mean fraction of the run each worker spent inside job closures.
  [[nodiscard]] double utilization() const {
    if (wall_ms <= 0.0 || worker_busy_ms.empty()) return 0.0;
    double busy = 0.0;
    for (const double ms : worker_busy_ms) busy += ms;
    return busy / (wall_ms * static_cast<double>(worker_busy_ms.size()));
  }
};

class JobExecutor {
 public:
  // `workers` >= 1 (SystemConfig::validate requires threads >= 1).
  explicit JobExecutor(std::uint32_t workers);

  JobExecutor(const JobExecutor&) = delete;
  JobExecutor& operator=(const JobExecutor&) = delete;

  // Finalizes the graph (cycle check), executes every node, and blocks
  // until the whole graph has run.  The calling thread acts as worker 0;
  // worker_count() - 1 pool threads are spawned for the duration of the
  // run.  Rethrows the first job exception after cancelling the rest.
  ExecutorStats run(JobGraph& graph);

  [[nodiscard]] std::uint32_t worker_count() const { return workers_; }

 private:
  std::uint32_t workers_;
};

}  // namespace vodcache::core
