// Shared plumbing for the figure-reproduction harnesses.
//
// Every bench regenerates one table or figure from the paper and prints the
// paper's reference numbers next to the measured ones.  Workload length is
// tunable: VODCACHE_DAYS=<n> overrides each bench's default (longer runs
// converge closer to the paper's 7-month steady state; the defaults trade a
// little convergence for minutes of runtime), and VODCACHE_THREADS=<n> runs
// the sharded replay on a worker pool (bit-identical numbers, less wall
// clock).
#pragma once

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "analysis/load_analysis.hpp"
#include "analysis/table.hpp"
#include "core/vod_system.hpp"
#include "trace/generator.hpp"
#include "trace/session_source.hpp"
#include "util/parse.hpp"

namespace vodcache::bench {

// A malformed override is a broken run, not a default one: fail loudly so
// a typo'd VODCACHE_DAYS=3O never silently benchmarks the default workload.
// `zero_ok` admits 0 as a legitimate value (VODCACHE_THREADS=0 means "use
// hardware concurrency"); negatives and garbage always abort.
inline int env_int(const char* name, int fallback, bool zero_ok = false) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const auto parsed = util::parse_strict<int>(value);
  if (!parsed || *parsed < 0 || (*parsed == 0 && !zero_ok)) {
    std::cerr << "bench: " << name << " must be a positive integer"
              << (zero_ok ? " (or 0 for hardware concurrency)" : "")
              << ", got '" << value << "'\n";
    std::exit(2);
  }
  return *parsed;
}

inline int workload_days(int fallback) {
  return env_int("VODCACHE_DAYS", fallback);
}

inline int workload_threads(int fallback = 1) {
  const int threads = env_int("VODCACHE_THREADS", fallback, /*zero_ok=*/true);
  if (threads > 0) return threads;
  const auto hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

// The full-scale PowerInfo-like workload (41,698 users, 8,278 programs).
inline trace::GeneratorConfig standard_workload(int days) {
  trace::GeneratorConfig config;
  config.days = days;
  return config;
}

inline trace::Trace standard_trace(int days) {
  return trace::generate_power_info_like(standard_workload(days));
}

// The same workload as a lazy source (O(users-per-hour) memory; see
// trace/session_source.hpp) — what the scaling sweeps stream from instead
// of materializing n x copies of the trace.
inline trace::GeneratorSource standard_source(int days) {
  return trace::GeneratorSource(standard_workload(days));
}

// Default system config used by the paper unless a figure says otherwise:
// 1,000-peer neighborhoods, 10 GB per peer, LFU.
inline core::SystemConfig standard_system() {
  core::SystemConfig config;
  config.neighborhood_size = 1000;
  config.per_peer_storage = DataSize::gigabytes(10);
  config.strategy.kind = core::StrategyKind::Lfu;
  return config;
}

inline core::SimulationReport run_system(const trace::SessionSource& source,
                                         const core::SystemConfig& config) {
  core::SystemConfig actual = config;
  actual.threads = static_cast<std::uint32_t>(
      workload_threads(static_cast<int>(config.threads)));
  core::VodSystem system(source, actual);
  return system.run();
}

// A run plus how long it took — the unit the throughput ratchet consumes.
struct TimedReport {
  core::SimulationReport report;
  double wall_ms = 0.0;
};

// Sessions replayed per wall-clock second: the engine's first-class
// throughput number (ISSUE 7).  Zero when the clock read as zero (a
// degenerate sub-millisecond run), never a division fault.
inline double sessions_per_sec(std::uint64_t sessions, double wall_ms) {
  return wall_ms > 0.0 ? static_cast<double>(sessions) / (wall_ms / 1000.0)
                       : 0.0;
}

inline double sessions_per_sec(const TimedReport& timed) {
  return sessions_per_sec(timed.report.sessions, timed.wall_ms);
}

// run_system with the wall clock around it.  The clock wraps construction
// too: shard setup is part of the cost of serving a workload.
inline TimedReport run_system_timed(const trace::SessionSource& input,
                                    const core::SystemConfig& config) {
  const auto begin = std::chrono::steady_clock::now();
  TimedReport timed;
  timed.report = run_system(input, config);
  timed.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - begin)
                      .count();
  return timed;
}

// Process-lifetime peak resident set size in kilobytes (0 where the
// platform has no getrusage).  Monotone by construction: it can only tell
// you the high-water mark so far, not that a later phase used less.
inline long peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<long>(usage.ru_maxrss / 1024);  // bytes on macOS
#else
  return static_cast<long>(usage.ru_maxrss);  // kilobytes on Linux
#endif
#else
  return 0;
#endif
}

inline void print_header(const std::string& title,
                         const std::string& paper_reference) {
  std::cout << "\n==============================================================\n"
            << title << '\n'
            << "paper reference: " << paper_reference << '\n'
            << "==============================================================\n";
}

inline std::string fmt_peak(const sim::PeakStats& peak) {
  return analysis::Table::num(peak.mean.gbps(), 2) + " [" +
         analysis::Table::num(peak.q05.gbps(), 2) + ", " +
         analysis::Table::num(peak.q95.gbps(), 2) + "]";
}

}  // namespace vodcache::bench
