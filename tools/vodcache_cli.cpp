// vodcache — command-line HFC VoD deployment planner.
//
// Generates (or loads) a workload, deploys the cooperative cache, replays
// the trace, and reports what the central servers, headend fiber feeds,
// and neighborhood coax must sustain.
//
// The workload is streamed: sessions are generated (or read) lazily and
// consumed incrementally, so memory stays flat in the horizon and the user
// count — a million-user multi-day run fits in commodity RAM.  `--materialize`
// forces the old buffer-everything path; its report is byte-identical.
//
// `vodcache --help` lists the commands and every option; it is generated
// from the config-key table (src/scenario/config_keys.hpp) that also parses
// the flags and the scenario files.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/load_analysis.hpp"
#include "analysis/table.hpp"
#include "core/policy_registry.hpp"
#include "core/report_json.hpp"
#include "core/vod_system.hpp"
#include "scenario/config_keys.hpp"
#include "trace/csv_io.hpp"
#include "trace/scaler.hpp"
#include "trace/session_source.hpp"

namespace {

using namespace vodcache;

using scenario::CliOptions;

// One registry as a table: key, report name, summary.
template <typename Entries>
void print_registry(const char* title, const char* column,
                    const Entries& entries) {
  analysis::Table table({column, "report name", "what it does"});
  for (const auto& entry : entries) {
    table.add_row({entry.key, entry.display, entry.summary});
  }
  std::cout << title;
  table.print(std::cout);
}

int list_scenarios() {
  analysis::Table sections({"section", "keys", "what it does"});
  for (const auto& entry : scenario::section_registry()) {
    sections.add_row(
        {entry.key, scenario::section_key_list(entry.key), entry.summary});
  }
  std::cout << "scenario file sections (--scenario; see "
               "examples/scenarios/*.scn):\n";
  sections.print(std::cout);
  return 0;
}

// The workload as a lazy source chain: generator or CSV file at the base,
// optionally wrapped by the section V-A scaling adaptors.  `parts` keeps
// every link alive (unique_ptrs, so the pointees — which the links point
// into — stay put when the chain moves); `tip()` is the composed workload.
// With `--materialize`, the tip is an in-memory Trace (itself a source) —
// byte-identical results, RAM proportional to the session count (the
// cross-check path).
struct SourceChain {
  std::vector<std::unique_ptr<trace::SessionSource>> parts;

  [[nodiscard]] const trace::SessionSource& tip() const {
    return *parts.back();
  }

  void materialize_tip() {
    parts.push_back(std::make_unique<trace::Trace>(trace::materialize(tip())));
  }
};

SourceChain open_source(const CliOptions& options) {
  const auto& config = options.config;
  SourceChain chain;
  if (!options.trace_path.empty()) {
    std::cerr << "loading trace " << options.trace_path << "...\n";
    if (config.materialize) {
      // The materialized loader tolerates what a streaming pass cannot
      // (unsorted sessions, meta after sessions): it buffers and re-sorts.
      chain.parts.push_back(std::make_unique<trace::Trace>(
          trace::read_csv_file(options.trace_path)));
    } else {
      chain.parts.push_back(
          std::make_unique<trace::CsvSource>(options.trace_path));
    }
  } else {
    const auto& spec = config.scenario;
    std::cerr << "generating " << spec.workload.days << "-day workload ("
              << spec.workload.user_count << " users, "
              << spec.workload.program_count << " programs)...\n";
    chain.parts.push_back(
        std::make_unique<trace::GeneratorSource>(spec.workload));
    if (options.has_scenario) {
      std::cerr << "applying scenario '" << spec.name << "'";
      if (!spec.summary.empty()) std::cerr << " (" << spec.summary << ")";
      std::cerr << "...\n";
      // The skew adaptor replays the placement of the final neighborhood
      // sizing, which later flags may have changed.
      scenario::stack_adaptors(chain.parts, spec,
                               config.system.neighborhood_size);
    }
  }
  const bool scaled = config.scale_pop > 1 || config.scale_cat > 1;
  // A CSV workload's id spaces are known only now (a ConfigError: exit 2).
  scenario::check_id_space(chain.tip().user_count(),
                           chain.tip().catalog().size(), config);
  if (config.scale_pop > 1) {
    const auto& base = chain.tip();
    chain.parts.push_back(std::make_unique<trace::PopulationScaledSource>(
        base, config.scale_pop));
  }
  if (config.scale_cat > 1) {
    const auto& base = chain.tip();
    chain.parts.push_back(std::make_unique<trace::CatalogScaledSource>(
        base, config.scale_cat));
  }
  // A loaded --materialize trace is already in memory; only re-materialize
  // when adaptors (or the generator) sit on top.
  if (config.materialize && (scaled || options.trace_path.empty())) {
    std::cerr << "materializing " << (scaled ? "scaled " : "")
              << "trace in memory...\n";
    chain.materialize_tip();
  }
  return chain;
}

int cmd_gen(const CliOptions& options) {
  const auto chain = open_source(options);
  const auto count =
      trace::write_csv_file(chain.tip(), options.output_path);
  std::cerr << "wrote " << count << " sessions to " << options.output_path
            << '\n';
  return 0;
}

int cmd_demand(const CliOptions& options) {
  const auto& config = options.config.system;
  const auto chain = open_source(options);
  // One metering pass serves both views (a pass regenerates the whole
  // stream, which is the dominant cost at scale).
  const auto meter =
      analysis::demand_meter(chain.tip(), config.stream_rate);
  const auto profile = meter.hourly_profile();
  analysis::Table table({"hour", "Gb/s"});
  for (int h = 0; h < 24; ++h) {
    table.add_row({std::to_string(h),
                   analysis::Table::num(profile[h].gbps(), 2)});
  }
  table.print(std::cout);
  const auto half_horizon =
      sim::SimTime::millis(chain.tip().horizon().millis_count() / 2);
  const auto peak =
      sim::peak_stats(meter, config.peak_window,
                      std::min(config.warmup, half_horizon));
  std::cout << "peak-window demand: " << peak.mean.gbps() << " Gb/s\n";
  return 0;
}

int cmd_run(const CliOptions& options) {
  const auto& config = options.config.system;
  const auto chain = open_source(options);
  const auto& source = chain.tip();
  const auto demand = analysis::demand_peak(source, config.stream_rate,
                                            config.peak_window, config.warmup);

  std::cerr << "simulating " << core::to_string(config.strategy.kind);
  if (config.strategy.kind != core::StrategyKind::None &&
      config.admission_policy.kind != core::AdmissionKind::Always) {
    std::cerr << " + " << core::to_string(config.admission_policy.kind)
              << " admission";
  }
  std::cerr << " / " << config.neighborhood_size << " peers x "
            << config.per_peer_storage.as_gigabytes() << " GB ("
            << core::to_string(config.admission) << " admission, "
            << config.threads << " thread"
            << (config.threads == 1 ? "" : "s") << ", "
            << (options.config.materialize ? "materialized" : "streaming")
            << ")...\n";
  core::VodSystem system(source, config);
  const auto report = system.run();

  // With --json to stdout, stdout must stay machine-parseable: route the
  // human-readable summary to stderr instead.
  const bool json_on_stdout = options.emit_json && options.json_path == "-";
  std::ostream& human = json_on_stdout ? std::cerr : std::cout;

  human << report.to_string();
  human << "no-cache demand:  " << demand.mean.gbps() << " Gb/s\n"
        << "reduction:        "
        << analysis::Table::num(100.0 * report.reduction_vs(demand.mean), 1)
        << "%\n";

  // Headend fiber provisioning summary (max over neighborhoods).
  double fiber_q95 = 0.0;
  for (const auto& n : report.neighborhoods) {
    fiber_q95 = std::max(fiber_q95, n.fiber_peak.q95.mbps());
  }
  human << "worst headend fiber feed (p95): "
        << analysis::Table::num(fiber_q95, 0) << " Mb/s\n";

  if (options.emit_json) {
    if (options.json_path == "-") {
      core::write_json(report, std::cout);
      std::cout << '\n';
    } else {
      std::ofstream out(options.json_path);
      if (!out) {
        std::cerr << "cannot write " << options.json_path << '\n';
        return 1;
      }
      core::write_json(report, out);
      std::cerr << "wrote JSON report to " << options.json_path << '\n';
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto options =
        scenario::parse_cli(std::vector<std::string>(argv + 1, argv + argc));
    if (options.command == "run") return cmd_run(options);
    if (options.command == "gen") return cmd_gen(options);
    if (options.command == "demand") return cmd_demand(options);
    if (options.command == "--list-scenarios") return list_scenarios();
    if (options.command == "--list-strategies") {
      print_registry("eviction strategies (--strategy):\n", "strategy",
                     core::scorer_registry());
      print_registry("\nadmission policies (--admission-policy):\n",
                     "policy", core::admission_registry());
    } else if (options.command == "--list-tiers") {
      print_registry("hub prefetch policies (--prefetch):\n", "prefetch",
                     core::prefetch_registry());
    } else {
      std::cout << scenario::cli_usage();  // --help, -h
    }
    return 0;
  } catch (const scenario::ConfigError& error) {
    std::cerr << "vodcache: " << error.what()
              << "\n\nusage: vodcache run|gen|demand [options]  (vodcache "
                 "--help lists them)\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "vodcache: " << error.what() << '\n';
    return 1;
  }
}
