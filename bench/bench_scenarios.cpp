// Scenario sweep: every shipped scenario file crossed with the full
// policy matrix (eviction scorer x admission policy, straight from the
// PolicyRegistry).
//
// The paper's evaluation is one workload shape; the scenario engine
// (src/scenario/) makes adversarial shapes — flash crowds, release waves,
// decay regimes, skewed neighborhoods, failure storms — config files.
// This bench answers the question those files exist for: which policies
// hold up when the workload stops being polite?  Reference expectations:
//
//  * the flash-crowd and pileup scenarios cache well (one hot title is
//    easy); the decay and skew scenarios are the hard ones;
//  * hit rates must *differ* across scenarios — if every scenario lands
//    at the same hit rate the adaptors are not doing anything, and the
//    bench exits nonzero (the acceptance gate for the scenario engine);
//  * on the flash crowd, the sketch-lfu gate must beat second-hit under
//    LRU eviction: the fast-halving count-min sketch admits the crowd
//    instantly (its counts outrun any decay) while one-evening-wonders
//    decay below the threshold, where second-hit re-admits any pair of
//    close accesses — and LRU, the churn-prone scorer, is where that
//    extra filtering pays (LFU already encodes frequency in eviction, so
//    a frequency gate is redundant there).  The bench exits nonzero if
//    the sketch column does not win that scenario.
//
// Since the shadow-matrix pass (core/index_server.hpp), each scenario
// costs TWO replays instead of one per matrix cell: a calibration pass
// reads the peak coax off the (policy-independent) meters, then one
// shadow pass carries every (scorer x admission) pair and emits the full
// matrix.  The shadow cells are pinned equal to standalone runs in
// tests/shadow_bank_test.cpp and bench_policy_matrix's cross-check mode.
//
// Scenario files come from VODCACHE_SCENARIO_DIR (env override; defaults
// to the repo's examples/scenarios, baked in at compile time).  A
// scenario added there appears in this sweep with no bench change, just
// like a policy added to the registry.
//
// Emits BENCH_scenarios.json (override with VODCACHE_SCENARIOS_JSON):
//   {bench, scenarios:[{name, summary, users, days, no_cache_gbps,
//    headroom_fraction, rows:[{scorer, admission, hit_ratio,
//    byte_hit_ratio, fills, evictions, admission_denials}]}],
//    lfu_hit_rate_spread, flash_crowd_sketch_beats_second_hit,
//    skew_switching_hit_ratio, skew_best_fixed_hit_ratio,
//    skew_policy_switches, skew_switching_beats_best_fixed}
//
// The neighborhood_skew scenario additionally runs a live-switching pass
// (cache/policy_switcher.hpp): every neighborhood starts at the best
// fixed pair of the shadow sweep and may promote a locally-winning
// shadow; the bench exits nonzero unless that run's aggregate hit ratio
// strictly beats the best fixed pair's.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_support.hpp"

#include "core/policy_registry.hpp"
#include "scenario/scenario.hpp"

#ifndef VODCACHE_SCENARIO_DIR
#define VODCACHE_SCENARIO_DIR "examples/scenarios"
#endif

using namespace vodcache;

namespace {

struct ScenarioResult {
  scenario::ScenarioSpec spec;
  double no_cache_gbps;
  double headroom_fraction;
  std::vector<core::ShadowCellReport> rows;
  // Live-switching pass (neighborhood_skew only): per-neighborhood
  // promotion off the shadow matrix vs the best single fixed pair.
  bool has_switching = false;
  std::string best_scorer, best_admission;
  double best_fixed_hit_ratio = 0.0;
  double switching_hit_ratio = 0.0;
  std::size_t switch_count = 0;
};

// The scenario name (a file stem) and summary (free text) are the only
// user-authored strings in the JSON — escape them rather than emit a
// corrupt artifact when a summary contains a quote.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;  // control chars
    out += c;
  }
  return out;
}

std::vector<std::string> scenario_files() {
  const char* env = std::getenv("VODCACHE_SCENARIO_DIR");
  const std::string dir = env != nullptr ? env : VODCACHE_SCENARIO_DIR;
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".scn") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

double cell_hit_ratio(const ScenarioResult& result, const std::string& scorer,
                      const std::string& admission) {
  for (const auto& cell : result.rows) {
    if (cell.scorer == scorer && cell.admission == admission) {
      return cell.hit_ratio();
    }
  }
  std::cerr << "FAIL: scenario " << result.spec.name << " lacks cell "
            << scorer << " x " << admission << '\n';
  std::exit(1);
}

}  // namespace

int main() {
  bench::print_header(
      "Scenario x policy matrix: adversarial workloads vs every policy",
      "beyond the paper — its evaluation is one workload shape; these are "
      "the shapes operators fear");

  const auto files = scenario_files();
  if (files.empty()) {
    std::cerr << "FAIL: no .scn files found (set VODCACHE_SCENARIO_DIR)\n";
    return 1;
  }

  std::vector<ScenarioResult> results;
  for (const auto& file : files) {
    ScenarioResult result;
    scenario::RunConfig loaded;
    loaded.system.strategy.kind = core::StrategyKind::Lfu;
    loaded = scenario::load_scenario_file(file, std::move(loaded));
    result.spec = loaded.scenario;
    core::SystemConfig base = loaded.system;
    base.shadow_matrix = true;

    // Materialize the scenario once (these are bench-sized workloads);
    // the streamed twin is pinned byte-identical in tests/scenario_test.
    const scenario::ScenarioWorkload workload(result.spec,
                                              base.neighborhood_size);
    const auto trace = trace::materialize(workload.source());

    const auto demand = analysis::demand_peak(trace, base.stream_rate,
                                              base.peak_window, base.warmup);
    result.no_cache_gbps = demand.mean.gbps();

    // Calibrate the coax-headroom gate per scenario from the run's own
    // peak coax (see bench_policy_matrix): the meters are policy-
    // independent, so the calibration pass's peak is *the* peak, and the
    // gate provably engages during this scenario's busy hours.
    const auto calibration = bench::run_system(trace, base);
    result.headroom_fraction = std::min(
        1.0, std::max(0.01, calibration.coax_peak_pooled.mean.bps() /
                                base.coax.available_low().bps()));
    base.admission_policy.headroom_fraction = result.headroom_fraction;

    const auto report = bench::run_system(trace, base);
    result.rows = report.shadow_matrix;
    if (result.rows.empty()) {
      std::cerr << "FAIL: scenario " << result.spec.name
                << " produced no shadow cells\n";
      return 1;
    }

    std::cout << "\n--- scenario: " << result.spec.name << " ("
              << result.spec.summary << ")\n";
    analysis::Table table({"scorer", "admission", "hit rate", "byte hit",
                           "fills", "denials"});
    for (const auto& cell : result.rows) {
      const double byte_hit =
          cell.hit_bits + cell.miss_bits > 0.0
              ? cell.hit_bits / (cell.hit_bits + cell.miss_bits)
              : 0.0;
      table.add_row({cell.scorer, cell.admission,
                     analysis::Table::num(cell.hit_ratio(), 3),
                     analysis::Table::num(byte_hit, 3),
                     std::to_string(cell.fills),
                     std::to_string(cell.admission_denials)});
    }
    table.print(std::cout);

    // The switching gate: on the scenario built around per-neighborhood
    // divergence, one run that starts every neighborhood at the best
    // *fixed* pair and lets the switcher promote locally-winning shadows
    // must beat that best fixed pair's aggregate hit ratio — the whole
    // point of per-neighborhood selection is that no single pair is best
    // everywhere at once.
    if (result.spec.name == "neighborhood_skew") {
      const core::ShadowCellReport* best = nullptr;
      for (const auto& cell : result.rows) {
        if (best == nullptr || cell.hit_ratio() > best->hit_ratio()) {
          best = &cell;
        }
      }
      auto switching = base;
      switching.shadow_matrix = false;
      switching.policy_switch = true;
      // 12 h windows, two consecutive wins: half-day windows straddle the
      // diurnal peak/trough (shorter windows flap on evening noise and
      // lose the warm state they just gained), and k=2 filters one-off
      // windows without pushing the first possible switch past the 5-day
      // horizon.  Env-overridable for experiments, like VODCACHE_DAYS.
      switching.switch_window = sim::SimTime::hours(
          bench::env_int("VODCACHE_SWITCH_WINDOW_H", 12));
      switching.switch_windows_k = bench::env_int("VODCACHE_SWITCH_K", 2);
      for (const auto& entry : core::scorer_registry()) {
        if (best->scorer == entry.display) switching.strategy.kind = entry.kind;
      }
      for (const auto& entry : core::admission_registry()) {
        if (best->admission == entry.display) {
          switching.admission_policy.kind = entry.kind;
        }
      }
      const auto switched = bench::run_system(trace, switching);
      result.has_switching = true;
      result.best_scorer = best->scorer;
      result.best_admission = best->admission;
      result.best_fixed_hit_ratio = best->hit_ratio();
      result.switching_hit_ratio = switched.hit_ratio();
      result.switch_count = switched.policy_switches.size();
      std::cout << "live switching ("
                << switching.switch_window.millis_count() / 3'600'000
                << "h window, k=" << switching.switch_windows_k
                << ", primary "
                << result.best_scorer << " x " << result.best_admission
                << "): hit rate "
                << analysis::Table::num(result.switching_hit_ratio, 4)
                << " vs best fixed "
                << analysis::Table::num(result.best_fixed_hit_ratio, 4)
                << " across " << result.switch_count << " switches\n";
    }
    results.push_back(std::move(result));
  }

  // The acceptance gate: scenarios must actually change outcomes.  Judged
  // on the (LFU, always) cell — present in every scenario's sweep.
  double lo = cell_hit_ratio(results.front(), "LFU", "always");
  double hi = lo;
  for (const auto& result : results) {
    const double r = cell_hit_ratio(result, "LFU", "always");
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  const double spread = hi - lo;
  std::cout << "\nLFU/always hit-rate spread across scenarios: "
            << analysis::Table::num(spread, 3) << " (" <<
            analysis::Table::num(lo, 3) << " .. " << analysis::Table::num(hi, 3)
            << ")\n";

  // The sketch-admission gate: on the flash crowd, TinyLFU must beat the
  // second-hit probation under the same (LRU) eviction — see the header
  // for why LRU is the scorer where a frequency gate earns its keep.
  bool sketch_beats_second_hit = false;
  bool saw_flash_crowd = false;
  for (const auto& result : results) {
    if (result.spec.name != "flash_crowd") continue;
    saw_flash_crowd = true;
    const double sketch = cell_hit_ratio(result, "LRU", "sketch-lfu");
    const double second = cell_hit_ratio(result, "LRU", "second-hit");
    sketch_beats_second_hit = sketch > second;
    std::cout << "flash_crowd: LRU x sketch-lfu "
              << analysis::Table::num(sketch, 3) << " vs LRU x second-hit "
              << analysis::Table::num(second, 3) << '\n';
  }

  const char* path_env = std::getenv("VODCACHE_SCENARIOS_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_scenarios.json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "FAIL: cannot write " << path << '\n';
    return 1;
  }
  out << "{\"bench\":\"scenarios\",\"peak_rss_kb\":" << bench::peak_rss_kb()
      << ",\"scenarios\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    out << (i ? "," : "") << "{\"name\":\"" << json_escape(result.spec.name)
        << "\",\"summary\":\"" << json_escape(result.spec.summary)
        << "\",\"users\":" << result.spec.workload.user_count
        << ",\"days\":" << result.spec.workload.days
        << ",\"no_cache_gbps\":" << result.no_cache_gbps
        << ",\"headroom_fraction\":" << result.headroom_fraction
        << ",\"rows\":[";
    for (std::size_t j = 0; j < result.rows.size(); ++j) {
      const auto& cell = result.rows[j];
      const double byte_hit =
          cell.hit_bits + cell.miss_bits > 0.0
              ? cell.hit_bits / (cell.hit_bits + cell.miss_bits)
              : 0.0;
      out << (j ? "," : "") << "{\"scorer\":\"" << cell.scorer
          << "\",\"admission\":\"" << cell.admission
          << "\",\"hit_ratio\":" << cell.hit_ratio()
          << ",\"byte_hit_ratio\":" << byte_hit
          << ",\"fills\":" << cell.fills << ",\"evictions\":" << cell.evictions
          << ",\"admission_denials\":" << cell.admission_denials << '}';
    }
    out << "]}";
  }
  bool saw_skew_switching = false;
  bool switching_beats_best_fixed = false;
  double skew_switching = 0.0, skew_best_fixed = 0.0;
  std::size_t skew_switches = 0;
  for (const auto& result : results) {
    if (!result.has_switching) continue;
    saw_skew_switching = true;
    skew_switching = result.switching_hit_ratio;
    skew_best_fixed = result.best_fixed_hit_ratio;
    skew_switches = result.switch_count;
    switching_beats_best_fixed =
        result.switching_hit_ratio > result.best_fixed_hit_ratio;
  }

  out << "],\"lfu_hit_rate_spread\":" << spread
      << ",\"flash_crowd_sketch_beats_second_hit\":"
      << (sketch_beats_second_hit ? "true" : "false")
      << ",\"skew_switching_hit_ratio\":" << skew_switching
      << ",\"skew_best_fixed_hit_ratio\":" << skew_best_fixed
      << ",\"skew_policy_switches\":" << skew_switches
      << ",\"skew_switching_beats_best_fixed\":"
      << (switching_beats_best_fixed ? "true" : "false") << "}\n";
  std::cout << "wrote " << path << '\n';

  if (spread <= 0.0) {
    std::cerr << "FAIL: every scenario produced the same LFU hit rate — the "
                 "scenario adaptors changed nothing\n";
    return 1;
  }
  if (saw_flash_crowd && !sketch_beats_second_hit) {
    std::cerr << "FAIL: sketch-lfu did not beat second-hit on flash_crowd — "
                 "the sketch gate is not earning its keep\n";
    return 1;
  }
  if (saw_skew_switching && !switching_beats_best_fixed) {
    std::cerr << "FAIL: per-neighborhood switching did not beat the best "
                 "fixed pair on neighborhood_skew — live promotion is not "
                 "earning its keep\n";
    return 1;
  }
  return 0;
}
