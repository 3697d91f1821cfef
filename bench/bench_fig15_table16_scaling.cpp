// Figure 15 + Table 16(a) + Figures 16(b)/16(c): server load under
// multiplicative increases of subscriber population and catalog size
// (1,000-peer neighborhoods, 10 GB per peer, LFU).
//
// Paper reference (Table 16a, Gb/s):
//          catalog:  1x     2x     3x     4x     5x
//   pop 1x          2.14   5.07   6.98   8.23   9.16
//   pop 2x          4.25  10.11  13.91  16.45  18.29
//   pop 3x          6.38  15.15  20.87  24.67  27.44
//   pop 4x          8.45  20.08  27.71  32.79  36.49
//   pop 5x         10.54  25.11  34.65  41.01  45.64
// with the no-cache 1x-population load at 17 Gb/s.  Shape: linear in
// population (fixed ~88% saving), diminishing degradation in catalog.
//
// Every cell streams: the generator is a lazy SessionSource and the
// paper's section V-A transforms are O(1)-memory stream adaptors
// (PopulationScaledSource / CatalogScaledSource), so the sweep's footprint
// is the simulator state, not pop x cat copies of the trace.  Runtime
// scales with pop x days; the default (10 days) keeps the full 25-cell
// sweep to a few minutes.  VODCACHE_DAYS raises fidelity toward the
// paper's 7-month steady state.
//
// Beyond the paper: this harness also owns the engine's own scaling story.
// It replays the 1x workload at 1/2/4/8 worker threads, checks the reports
// are byte-identical, and writes wall-clock, peak-RSS and busy time per
// job-graph node kind to BENCH_scaling.json (override the path with
// VODCACHE_SCALING_JSON).
// VODCACHE_SCALING_ONLY=1 skips the 25-cell paper sweep for CI use.
#include <array>
#include <chrono>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_support.hpp"

#include "core/job_graph.hpp"
#include "core/report_json.hpp"
#include "trace/scaler.hpp"

using namespace vodcache;

namespace {

const double kPaperTable[5][5] = {{2.14, 5.07, 6.98, 8.23, 9.16},
                                  {4.25, 10.11, 13.91, 16.45, 18.29},
                                  {6.38, 15.15, 20.87, 24.67, 27.44},
                                  {8.45, 20.08, 27.71, 32.79, 36.49},
                                  {10.54, 25.11, 34.65, 41.01, 45.64}};

// Thread-scaling sweep: wall clock and peak RSS per thread count,
// byte-identity check, JSON emission.  Returns nonzero on a determinism
// violation.  Peak RSS is the process high-water mark (monotone), so the
// threads=1 sample is the informative one: every later run can only
// confirm the ceiling was not raised.
int run_thread_scaling(const trace::SessionSource& source,
                       const core::SystemConfig& base, int days) {
  bench::print_header(
      "Engine scaling: streamed sharded replay wall-clock at 1/2/4/8 threads",
      "reports must be byte-identical; speedup bounded by cores/shards");

  const unsigned cores = std::thread::hardware_concurrency();
  std::cout << "hardware_concurrency: " << cores << "\n";

  struct Sample {
    int threads;
    double wall_ms;
    double sessions_per_sec;
    long peak_rss_kb;
    std::uint64_t steal_count;
    double worker_utilization;
    std::array<double, core::kJobKinds> kind_busy_ms;
  };
  std::vector<Sample> samples;
  std::string reference_json;
  bool identical = true;

  analysis::Table table({"threads", "wall s", "speedup", "sessions/s",
                         "steals", "util", "peak RSS MB", "identical"});
  for (const int threads : {1, 2, 4, 8}) {
    auto config = base;
    config.threads = static_cast<std::uint32_t>(threads);
    const auto begin = std::chrono::steady_clock::now();
    core::VodSystem system(source, config);
    const auto report = system.run();
    const auto end = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(end - begin).count();
    // Scheduling observability: every thread count runs the job graph;
    // threads=1 runs it inline on one worker, so it never steals.
    const auto& exec = system.executor_stats();

    const auto json = core::to_json(report, /*include_neighborhoods=*/true);
    if (reference_json.empty()) {
      reference_json = json;
    } else if (json != reference_json) {
      identical = false;
    }
    samples.push_back({threads, wall_ms,
                       bench::sessions_per_sec(report.sessions, wall_ms),
                       bench::peak_rss_kb(), exec.steals,
                       exec.utilization(), exec.kind_busy_ms});
    table.add_row({std::to_string(threads),
                   analysis::Table::num(wall_ms / 1000.0, 2),
                   analysis::Table::num(samples.front().wall_ms / wall_ms, 2),
                   analysis::Table::num(samples.back().sessions_per_sec, 0),
                   std::to_string(samples.back().steal_count),
                   analysis::Table::num(samples.back().worker_utilization, 2),
                   analysis::Table::num(
                       static_cast<double>(samples.back().peak_rss_kb) /
                           1024.0, 0),
                   json == reference_json ? "yes" : "NO"});
  }
  table.print(std::cout);

  // Where each run's busy time went, by job-graph node kind (ARCHITECTURE.md,
  // "The job graph"): the serial chains (demux, prepass) against the
  // parallel feeds.
  std::vector<std::string> kind_columns{"threads"};
  for (std::size_t k = 0; k < core::kJobKinds; ++k) {
    kind_columns.push_back(
        std::string(core::job_kind_name(static_cast<core::JobKind>(k))) +
        " busy s");
  }
  analysis::Table kinds(kind_columns);
  for (const auto& sample : samples) {
    std::vector<std::string> row{std::to_string(sample.threads)};
    for (const double ms : sample.kind_busy_ms) {
      row.push_back(analysis::Table::num(ms / 1000.0, 3));
    }
    kinds.add_row(row);
  }
  kinds.print(std::cout);

  const char* path_env = std::getenv("VODCACHE_SCALING_JSON");
  const std::string path = path_env != nullptr ? path_env : "BENCH_scaling.json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "FAIL: cannot write " << path << '\n';
    return 1;
  }
  out << "{\"bench\":\"fig15_thread_scaling\",\"days\":" << days
      << ",\"users\":" << source.user_count()
      << ",\"hardware_concurrency\":" << cores
      << ",\"reports_identical\":" << (identical ? "true" : "false")
      << ",\"peak_rss_kb\":" << bench::peak_rss_kb() << ",\"runs\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out << (i ? "," : "") << "{\"threads\":" << samples[i].threads
        << ",\"wall_ms\":" << samples[i].wall_ms << ",\"speedup\":"
        << samples.front().wall_ms / samples[i].wall_ms
        << ",\"sessions_per_sec\":" << samples[i].sessions_per_sec
        << ",\"steal_count\":" << samples[i].steal_count
        << ",\"worker_utilization\":" << samples[i].worker_utilization
        << ",\"peak_rss_kb\":" << samples[i].peak_rss_kb
        << ",\"busy_ms_by_kind\":{";
    for (std::size_t k = 0; k < core::kJobKinds; ++k) {
      out << (k ? "," : "") << '"'
          << core::job_kind_name(static_cast<core::JobKind>(k))
          << "\":" << samples[i].kind_busy_ms[k];
    }
    out << "}}";
  }
  out << "]}\n";
  std::cout << "wrote " << path << '\n';

  if (!identical) {
    std::cerr << "FAIL: reports differ across thread counts\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  const int days = bench::workload_days(10);
  const int max_factor = bench::env_int("VODCACHE_MAX_FACTOR", 5);
  const bool scaling_only = std::getenv("VODCACHE_SCALING_ONLY") != nullptr;

  const trace::GeneratorSource base(bench::standard_workload(days));

  if (scaling_only) {
    return run_thread_scaling(base, bench::standard_system(), days);
  }
  bench::print_header(
      "Figure 15 / Table 16(a): population x catalog scaling (LFU, 10 TB "
      "neighborhood caches)",
      "linear in population, diminishing in catalog; see table in source");

  auto config = bench::standard_system();

  const auto demand = analysis::demand_peak(base, config.stream_rate,
                                            config.peak_window, config.warmup);
  std::cout << "no-cache baseline at 1x population: "
            << analysis::Table::num(demand.mean.gbps(), 2)
            << " Gb/s  (paper: 17 Gb/s line)\n\n";

  std::vector<std::vector<double>> measured(
      max_factor, std::vector<double>(max_factor, 0.0));

  analysis::Table table({"population", "catalog", "Gb/s [q05, q95]",
                         "paper Gb/s", "x of paper"});
  for (int pop = 1; pop <= max_factor; ++pop) {
    const trace::PopulationScaledSource pop_source(
        base, static_cast<std::uint32_t>(pop));
    for (int cat = 1; cat <= max_factor; ++cat) {
      const trace::CatalogScaledSource source(
          pop_source, static_cast<std::uint32_t>(cat));
      const auto report = bench::run_system(source, config);
      measured[pop - 1][cat - 1] = report.server_peak.mean.gbps();
      const double paper = kPaperTable[pop - 1][cat - 1];
      table.add_row({std::to_string(pop) + "x", std::to_string(cat) + "x",
                     bench::fmt_peak(report.server_peak),
                     analysis::Table::num(paper, 2),
                     analysis::Table::num(
                         report.server_peak.mean.gbps() / paper, 2)});
    }
  }
  table.print(std::cout);

  // Figure 16(b): the population column — linearity check.
  std::cout << "\nFigure 16(b): population scaling at 1x catalog "
               "(paper: linear, saving fixed at 88%)\n";
  analysis::Table fig16b({"population", "Gb/s", "Gb/s per 1x", "saving"});
  for (int pop = 1; pop <= max_factor; ++pop) {
    const double gbps = measured[pop - 1][0];
    fig16b.add_row(
        {std::to_string(pop) + "x", analysis::Table::num(gbps, 2),
         analysis::Table::num(gbps / pop, 2),
         analysis::Table::num(
             100.0 * (1.0 - gbps / (demand.mean.gbps() * pop)), 1) +
             "%"});
  }
  fig16b.print(std::cout);

  // Figure 16(c): the catalog row — diminishing degradation check.
  std::cout << "\nFigure 16(c): catalog scaling at 1x population "
               "(paper: diminishing increments)\n";
  analysis::Table fig16c({"catalog", "Gb/s", "increment"});
  for (int cat = 1; cat <= max_factor; ++cat) {
    const double gbps = measured[0][cat - 1];
    const double prev = cat > 1 ? measured[0][cat - 2] : 0.0;
    // std::string("+") rather than "+" + rvalue: GCC 12's -Wrestrict false
    // positive (PR105329) fires on the const char* + string&& overload at -O3.
    fig16c.add_row({std::to_string(cat) + "x", analysis::Table::num(gbps, 2),
                    cat > 1 ? std::string("+") +
                                  analysis::Table::num(gbps - prev, 2)
                            : std::string("-")});
  }
  fig16c.print(std::cout);

  std::cout << "\nCumulative increases in both population and catalog are "
               "needed to push the\nserver past the no-cache line (paper "
               "section VI-C).\n";

  return run_thread_scaling(base, config, days);
}
