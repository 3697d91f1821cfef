// Policy matrix: every eviction scorer crossed with every admission
// policy — the scenario space the composable policy engine opened up.
//
// The paper evaluates replacement strategies with admission hardwired to
// "every miss may enter" (sections IV-B.2 and VI-A); this harness sweeps
// the two axes independently.  Reference expectations:
//
//  * always-admit columns reproduce the paper's strategy ordering
//    (Oracle <= GlobalLFU/LFU <= LRU server load);
//  * second-hit trades first-session fills for tail-resistance — fills
//    drop sharply, hit rate moves a little on a Zipf workload;
//  * coax-headroom changes outcomes only when the wire is actually tight;
//    this harness pins its threshold to the run's own peak-window mean,
//    so the gate provably fires during evening peaks (the bench exits
//    nonzero if no row's hit rate moves).
//
// Since the shadow-matrix pass (--shadow-matrix, core/index_server.hpp),
// the whole matrix is measured in TWO replays instead of one per cell:
//
//  * pass 1 (default headroom) exists only to read the coax peak off the
//    meters — which are policy-independent, so any pass's meters would do;
//  * pass 2 (calibrated headroom) carries every (scorer x admission) pair
//    as a shadow cache and emits the full matrix from one replay.
//
// The old per-cell standalone runs survive as a cross-check: with
// VODCACHE_SHADOW_CROSSCHECK=1 a handful of cells — chosen to cover the
// Oracle future index and the GlobalLFU replay board wiring — are re-run
// standalone and their counters asserted equal to the shadow cells, bit
// for bit.  (tests/shadow_bank_test.cpp does the exhaustive sweep at test
// scale; this is the bench-scale spot check CI runs.)
//
// Scorers and admission policies come straight from the PolicyRegistry —
// a policy added there appears in this sweep (and in BENCH_policies.json)
// with no bench change.
//
// Emits BENCH_policies.json (override with VODCACHE_POLICY_JSON):
//   {bench, days, users, headroom_fraction, matrix_passes,
//    standalone_equivalent, wall_ms, shadow_sessions_per_sec,
//    rows:[{scorer, admission, hit_ratio, byte_hit_ratio, fills,
//           evictions, admission_denials}],
//    gate_changed_hit_rate}
// The shadow_sessions_per_sec field is ratcheted against
// baselines/BENCH_policies.json by tools/check_throughput.py.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_support.hpp"

#include "core/policy_registry.hpp"
#include "core/report_json.hpp"

using namespace vodcache;

namespace {

// The full registry matrix at paper-shape but bench-friendly scale:
// 4,000 subscribers in 500-peer neighborhoods (8 shards), 1 GB per peer —
// the 500-peer pool stays well under the hot set, so eviction pressure is
// real and the scorers actually separate.
trace::GeneratorConfig matrix_workload(int days) {
  trace::GeneratorConfig workload;
  workload.days = days;
  workload.user_count = 4'000;
  workload.program_count = 1'200;
  return workload;
}

core::SystemConfig matrix_system() {
  core::SystemConfig config;
  config.neighborhood_size = 500;
  config.per_peer_storage = DataSize::gigabytes(1);
  config.warmup = sim::SimTime::days(1);
  return config;
}

double calibrated_fraction(const core::SimulationReport& report,
                           const core::SystemConfig& config) {
  const double mean_coax = report.coax_peak_pooled.mean.bps();
  const double available = config.coax.available_low().bps();
  return std::min(1.0, std::max(0.01, mean_coax / available));
}

const core::ShadowCellReport& find_cell(const core::SimulationReport& report,
                                        const std::string& scorer,
                                        const std::string& admission) {
  for (const auto& cell : report.shadow_matrix) {
    if (cell.scorer == scorer && cell.admission == admission) return cell;
  }
  std::cerr << "FAIL: shadow matrix lacks cell " << scorer << " x "
            << admission << '\n';
  std::exit(1);
}

// Re-runs one (scorer x admission) cell standalone — shadows off, that
// pair primary — and asserts the shadow cell predicted its counters
// exactly.  This is the whole shadow-matrix correctness claim at bench
// scale.  The primary and every shadow run the same cache::CacheCell code,
// so a failure here means the shard fed the bank a different event order,
// or a primary-only side effect leaked into a placement decision.
bool crosscheck_cell(const trace::Trace& trace, core::SystemConfig config,
                     core::StrategyKind scorer_kind,
                     core::AdmissionKind admission_kind,
                     const core::ShadowCellReport& cell) {
  config.shadow_matrix = false;
  config.strategy.kind = scorer_kind;
  config.admission_policy.kind = admission_kind;
  const auto standalone = bench::run_system(trace, config);

  bool ok = true;
  const auto check = [&](const char* what, auto shadow, auto real) {
    if (shadow != real) {
      std::cerr << "FAIL: crosscheck " << cell.scorer << " x "
                << cell.admission << ": " << what << " shadow=" << shadow
                << " standalone=" << real << '\n';
      ok = false;
    }
  };
  check("sessions", cell.sessions, standalone.sessions);
  check("segments", cell.segments, standalone.segments);
  check("hits", cell.hits, standalone.hits);
  check("cold_misses", cell.cold_misses, standalone.cold_misses);
  check("busy_misses", cell.busy_misses, standalone.busy_misses);
  check("evictions", cell.evictions, standalone.evictions);
  check("fills", cell.fills, standalone.fills);
  check("admission_denials", cell.admission_denials,
        standalone.admission_denials);
  if (ok) {
    std::cout << "crosscheck ok: " << cell.scorer << " x " << cell.admission
              << " (hits=" << cell.hits << ", denials="
              << cell.admission_denials << ")\n";
  }
  return ok;
}

}  // namespace

int main() {
  const int days = bench::workload_days(4);
  bench::print_header(
      "Policy matrix: eviction scorer x admission policy (shadow pass)",
      "always-admit reproduces the paper; the other columns are new "
      "scenario space");

  const auto trace = trace::generate_power_info_like(matrix_workload(days));
  auto config = matrix_system();
  config.strategy.kind = core::StrategyKind::Lfu;
  config.shadow_matrix = true;

  const auto demand = analysis::demand_peak(trace, config.stream_rate,
                                            config.peak_window, config.warmup);
  std::cout << "no-cache baseline: "
            << analysis::Table::num(demand.mean.gbps(), 2) << " Gb/s\n";

  // Pass 1: calibrate the coax-headroom threshold from the plant itself.
  // The coax meters are policy-independent (every segment is metered once
  // whatever policy runs), so this pass's peak-window mean is THE peak-
  // window mean — pass 2 re-derives it below and the bench asserts the
  // two calibrations agree, which is exactly the independence claim the
  // headroom shadows rely on.
  const auto pass1 = bench::run_system_timed(trace, config);
  config.admission_policy.headroom_fraction =
      calibrated_fraction(pass1.report, config);
  std::cout << "coax-headroom threshold: "
            << analysis::Table::num(
                   config.admission_policy.headroom_fraction * 100.0, 2)
            << "% of the available band\n\n";

  // Pass 2: the matrix itself — every pair shadowed against one replay.
  const auto pass2 = bench::run_system_timed(trace, config);
  const auto& matrix = pass2.report.shadow_matrix;
  if (matrix.empty()) {
    std::cerr << "FAIL: shadow-matrix run produced no shadow cells\n";
    return 1;
  }

  if (calibrated_fraction(pass2.report, config) !=
      config.admission_policy.headroom_fraction) {
    std::cerr << "FAIL: pass 2's coax meters disagree with pass 1's — the "
                 "meters are supposed to be policy-independent\n";
    return 1;
  }

  bool gate_changed_hit_rate = false;
  analysis::Table table({"scorer", "admission", "hit rate", "byte hit",
                         "fills", "evictions", "denials"});
  // Keyed by display, compared after the loop: the verdict must not depend
  // on the matrix's iteration order.
  std::map<std::string, std::map<std::string, double>> hit_by_pair;
  for (const auto& cell : matrix) {
    const double byte_hit =
        cell.hit_bits + cell.miss_bits > 0.0
            ? cell.hit_bits / (cell.hit_bits + cell.miss_bits)
            : 0.0;
    table.add_row({cell.scorer, cell.admission,
                   analysis::Table::num(cell.hit_ratio(), 3),
                   analysis::Table::num(byte_hit, 3),
                   std::to_string(cell.fills),
                   std::to_string(cell.evictions),
                   std::to_string(cell.admission_denials)});
    hit_by_pair[cell.scorer][cell.admission] = cell.hit_ratio();
  }
  for (const auto& [scorer, by_admission] : hit_by_pair) {
    if (by_admission.at("coax-headroom") != by_admission.at("always")) {
      gate_changed_hit_rate = true;
    }
  }
  table.print(std::cout);

  const double wall_ms = pass1.wall_ms + pass2.wall_ms;
  const double shadow_rate = bench::sessions_per_sec(pass2);
  std::cout << "matrix in 2 passes (" << matrix.size()
            << " standalone runs replaced): "
            << analysis::Table::num(wall_ms / 1000.0, 2) << " s total, "
            << analysis::Table::num(shadow_rate, 0)
            << " sessions/s in the shadow pass\n";

  // Cross-check: a cell per primary-state flavor — GreedyDual (plain
  // scorer) x second-hit, Oracle (future index) x sketch-lfu, and
  // GlobalLFU (replay board) x coax-headroom.
  if (const char* env = std::getenv("VODCACHE_SHADOW_CROSSCHECK");
      env != nullptr && std::string(env) == "1") {
    bool ok = true;
    ok &= crosscheck_cell(trace, config, core::StrategyKind::GreedyDual,
                          core::AdmissionKind::SecondHit,
                          find_cell(pass2.report, "GreedyDual", "second-hit"));
    ok &= crosscheck_cell(trace, config, core::StrategyKind::Oracle,
                          core::AdmissionKind::SketchLfu,
                          find_cell(pass2.report, "Oracle", "sketch-lfu"));
    ok &= crosscheck_cell(
        trace, config, core::StrategyKind::GlobalLfu,
        core::AdmissionKind::CoaxHeadroom,
        find_cell(pass2.report, "GlobalLFU", "coax-headroom"));
    if (!ok) return 1;
  }

  const char* path_env = std::getenv("VODCACHE_POLICY_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_policies.json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "FAIL: cannot write " << path << '\n';
    return 1;
  }
  out << "{\"bench\":\"policy_matrix\",\"days\":" << days
      << ",\"users\":" << trace.user_count() << ",\"headroom_fraction\":"
      << config.admission_policy.headroom_fraction
      << ",\"matrix_passes\":2,\"standalone_equivalent\":" << matrix.size()
      << ",\"wall_ms\":" << wall_ms
      << ",\"shadow_sessions_per_sec\":" << shadow_rate
      << ",\"peak_rss_kb\":" << bench::peak_rss_kb() << ",\"rows\":[";
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const auto& cell = matrix[i];
    const double byte_hit =
        cell.hit_bits + cell.miss_bits > 0.0
            ? cell.hit_bits / (cell.hit_bits + cell.miss_bits)
            : 0.0;
    out << (i ? "," : "") << "{\"scorer\":\"" << cell.scorer
        << "\",\"admission\":\"" << cell.admission
        << "\",\"hit_ratio\":" << cell.hit_ratio()
        << ",\"byte_hit_ratio\":" << byte_hit
        << ",\"fills\":" << cell.fills << ",\"evictions\":" << cell.evictions
        << ",\"admission_denials\":" << cell.admission_denials << '}';
  }
  out << "],\"gate_changed_hit_rate\":"
      << (gate_changed_hit_rate ? "true" : "false") << "}\n";
  std::cout << "wrote " << path << '\n';

  if (!gate_changed_hit_rate) {
    std::cerr << "FAIL: the coax-headroom gate changed no scorer's hit rate "
                 "(threshold calibration is broken)\n";
    return 1;
  }
  return 0;
}
