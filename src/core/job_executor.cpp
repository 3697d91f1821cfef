#include "core/job_executor.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "util/assert.hpp"

namespace vodcache::core {

namespace {

// Everything one run needs, shared by the caller-worker and the pool.
struct RunState {
  explicit RunState(const JobGraph& graph, std::uint32_t workers)
      : graph(graph),
        pending(std::make_unique<std::atomic<std::uint32_t>[]>(
            graph.node_count())),
        remaining(graph.node_count()),
        deques(workers),
        locals(workers) {
    for (std::size_t n = 0; n < graph.node_count(); ++n) {
      pending[n].store(graph.dependency_count(static_cast<JobId>(n)),
                       std::memory_order_relaxed);
    }
  }

  const JobGraph& graph;
  std::unique_ptr<std::atomic<std::uint32_t>[]> pending;
  std::atomic<std::size_t> remaining;
  std::atomic<bool> cancelled{false};
  std::atomic<std::uint64_t> steals{0};

  std::mutex error_mutex;
  std::exception_ptr error;

  struct WorkerDeque {
    std::mutex mutex;
    std::deque<JobId> jobs;
  };
  std::vector<WorkerDeque> deques;

  // Per-worker tallies, merged after the join (each slot is written by its
  // worker only, so no synchronization beyond the join is needed).
  struct WorkerLocal {
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    double busy_ms = 0.0;
    std::array<double, kJobKinds> kind_busy_ms{};
  };
  std::vector<WorkerLocal> locals;

  // Idle workers nap here.  Pushes notify; the bounded wait below makes a
  // missed notify a latency blip, never a hang.
  std::mutex sleep_mutex;
  std::condition_variable sleep_cv;
};

void push_ready(RunState& state, std::uint32_t self, JobId job) {
  {
    const std::lock_guard<std::mutex> lock(state.deques[self].mutex);
    state.deques[self].jobs.push_back(job);
  }
  state.sleep_cv.notify_one();
}

bool pop_own(RunState& state, std::uint32_t self, JobId& job) {
  auto& deque = state.deques[self];
  const std::lock_guard<std::mutex> lock(deque.mutex);
  if (deque.jobs.empty()) return false;
  job = deque.jobs.back();
  deque.jobs.pop_back();
  return true;
}

bool steal(RunState& state, std::uint32_t self, JobId& job) {
  const auto workers = static_cast<std::uint32_t>(state.deques.size());
  for (std::uint32_t i = 1; i < workers; ++i) {
    auto& victim = state.deques[(self + i) % workers];
    const std::lock_guard<std::mutex> lock(victim.mutex);
    if (victim.jobs.empty()) continue;
    job = victim.jobs.front();
    victim.jobs.pop_front();
    state.steals.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void execute(RunState& state, std::uint32_t self, JobId job) {
  auto& local = state.locals[self];
  if (!state.cancelled.load(std::memory_order_acquire)) {
    const auto begin = std::chrono::steady_clock::now();
    try {
      state.graph.run_job(job);
      ++local.executed;
    } catch (...) {
      // The thrower's body ran, so it counts as executed — the completion
      // invariant (executed + cancelled == nodes) must hold on this path too.
      ++local.executed;
      {
        const std::lock_guard<std::mutex> lock(state.error_mutex);
        if (!state.error) state.error = std::current_exception();
      }
      state.cancelled.store(true, std::memory_order_release);
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - begin)
                          .count();
    local.busy_ms += ms;
    local.kind_busy_ms[static_cast<std::size_t>(state.graph.kind(job))] += ms;
  } else {
    ++local.cancelled;
  }

  // Unblock children.  acq_rel on the last decrement gives the child a
  // happens-before edge from every parent's effects, whichever worker ran
  // them — the memory-visibility guarantee the diamond-DAG test pins.
  for (const JobId child : state.graph.children(job)) {
    if (state.pending[child].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      push_ready(state, self, child);
    }
  }
  if (state.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    state.sleep_cv.notify_all();
  }
}

void worker_loop(RunState& state, std::uint32_t self) {
  while (state.remaining.load(std::memory_order_acquire) > 0) {
    JobId job;
    if (pop_own(state, self, job) || steal(state, self, job)) {
      execute(state, self, job);
      continue;
    }
    std::unique_lock<std::mutex> lock(state.sleep_mutex);
    state.sleep_cv.wait_for(lock, std::chrono::microseconds(200));
  }
}

}  // namespace

JobExecutor::JobExecutor(std::uint32_t workers) : workers_(workers) {
  VODCACHE_EXPECTS(workers >= 1);
}

ExecutorStats JobExecutor::run(JobGraph& graph) {
  graph.finalize();

  ExecutorStats stats;
  if (graph.node_count() == 0) {
    stats.worker_busy_ms.assign(1, 0.0);
    return stats;
  }

  // More workers than nodes can never all be busy; don't spawn them.
  const auto workers = static_cast<std::uint32_t>(std::min<std::size_t>(
      workers_, graph.node_count()));
  RunState state(graph, workers);

  // Seed the roots round-robin so every worker has a starting point.
  std::uint32_t slot = 0;
  for (std::size_t n = 0; n < graph.node_count(); ++n) {
    if (graph.dependency_count(static_cast<JobId>(n)) == 0) {
      state.deques[slot % workers].jobs.push_back(static_cast<JobId>(n));
      ++slot;
    }
  }
  VODCACHE_EXPECTS(slot > 0);  // finalize() guarantees acyclicity => roots

  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::uint32_t w = 1; w < workers; ++w) {
    pool.emplace_back([&state, w] { worker_loop(state, w); });
  }
  worker_loop(state, 0);
  for (auto& thread : pool) thread.join();
  stats.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - begin)
                      .count();

  stats.steals = state.steals.load(std::memory_order_relaxed);
  stats.worker_busy_ms.reserve(workers);
  for (const auto& local : state.locals) {
    stats.executed += local.executed;
    stats.cancelled += local.cancelled;
    stats.worker_busy_ms.push_back(local.busy_ms);
    for (std::size_t k = 0; k < kJobKinds; ++k) {
      stats.kind_busy_ms[k] += local.kind_busy_ms[k];
    }
  }
  VODCACHE_ASSERT(stats.executed + stats.cancelled == graph.node_count());

  if (state.error) std::rethrow_exception(state.error);
  return stats;
}

}  // namespace vodcache::core
