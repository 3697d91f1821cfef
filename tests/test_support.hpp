// Shared builders for tests: tiny catalogs, hand-written traces, and small
// generated workloads that keep test runtimes in milliseconds.
#pragma once

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/index_server.hpp"
#include "trace/generator.hpp"
#include "trace/scaler.hpp"
#include "trace/session_source.hpp"
#include "trace/trace.hpp"

namespace vodcache::test {

// One session start as a shard runs it: the neighborhood's history records
// the access, then a cell's scorer re-ranks what it moved.
inline void access(cache::AccessHistory& history,
                   cache::EvictionScorer& scorer, ProgramId program,
                   sim::SimTime t) {
  history.record(program, t);
  scorer.on_access(program, t);
}

// An index server's cells for direct construction: `scorer` x `admission`
// (null = always-admit) alone, as the primary.
inline core::IndexServer::Plan one_cell(
    std::unique_ptr<cache::EvictionScorer> scorer,
    std::unique_ptr<cache::AdmissionPolicy> admission = nullptr) {
  core::IndexServer::Plan plan;
  plan.cells.push_back({"", "", std::move(scorer), std::move(admission)});
  return plan;
}

// A catalog of `n` programs, all `minutes` long, introduced at time 0 (so
// any session time is valid), unit base weight.
inline trace::Catalog uniform_catalog(std::uint32_t n, int minutes = 30) {
  std::vector<trace::ProgramInfo> programs(n);
  for (auto& p : programs) {
    p.length = sim::SimTime::minutes(minutes);
    p.introduced = sim::SimTime{};
    p.base_weight = 1.0;
  }
  return trace::Catalog(std::move(programs));
}

struct SessionSpec {
  std::int64_t start_seconds;
  std::uint32_t user;
  std::uint32_t program;
  std::int64_t duration_seconds;
};

// Builds a trace from explicit sessions against `catalog`.
inline trace::Trace make_trace(trace::Catalog catalog,
                               const std::vector<SessionSpec>& specs,
                               std::uint32_t user_count,
                               std::int64_t horizon_days = 1) {
  std::vector<trace::SessionRecord> sessions;
  sessions.reserve(specs.size());
  for (const auto& spec : specs) {
    sessions.push_back({sim::SimTime::seconds(spec.start_seconds),
                        UserId{spec.user}, ProgramId{spec.program},
                        sim::SimTime::seconds(spec.duration_seconds)});
  }
  return trace::Trace(std::move(catalog), std::move(sessions), user_count,
                      sim::SimTime::days(horizon_days));
}

// A small but statistically non-trivial generated workload: ~200 users, 60
// programs, a few days.  Fast to generate (few ms) yet exercises the full
// popularity/session-length machinery.
inline trace::GeneratorConfig small_workload(std::int32_t days = 4,
                                             std::uint64_t seed = 1234) {
  trace::GeneratorConfig config;
  config.days = days;
  config.user_count = 200;
  config.program_count = 60;
  config.sessions_per_user_per_day = 4.0;
  config.seed = seed;
  return config;
}

// One line naming a seeded run's inputs — the generated workload and, for
// a replay, the system it runs through — for SCOPED_TRACE, so a failure's
// log says how to re-run it.
inline std::string repro_line(const trace::GeneratorConfig& workload) {
  std::ostringstream line;
  line << "repro: seed=" << workload.seed << " days=" << workload.days
       << " users=" << workload.user_count
       << " programs=" << workload.program_count
       << " sessions_per_user_day=" << workload.sessions_per_user_per_day;
  return line.str();
}

inline std::string repro_line(const trace::GeneratorConfig& workload,
                              const core::SystemConfig& config) {
  std::ostringstream line;
  line << repro_line(workload) << " threads=" << config.threads
       << " chunk_s=" << config.stream_chunk.millis_count() / 1000
       << " strategy=" << core::to_string(config.strategy.kind)
       << " lag_min=" << config.strategy.global_lag.millis_count() / 60'000
       << " admission=" << core::to_string(config.admission_policy.kind)
       << " granularity=" << core::to_string(config.admission)
       << " nsize=" << config.neighborhood_size
       << " storage_mb=" << config.per_peer_storage.byte_count() / 1e6
       << " failure_waves=" << config.peer_failures.size()
       << " tiers=" << config.tiers.size()
       << " prefetch=" << core::to_string(config.prefetch.kind)
       << " shadow_matrix=" << config.shadow_matrix;
  return line.str();
}

// Total viewer-facing traffic if every session of `trace` streams at
// `rate` (the paper's "no cache" server demand).
inline DataSize total_demand(const trace::Trace& trace, DataRate rate) {
  DataSize total;
  for (const auto& s : trace.sessions()) {
    total += rate.over_seconds(s.duration.seconds_f());
  }
  return total;
}

// The materialized scaling transforms: `input` drained through
// trace::PopulationScaledSource / trace::CatalogScaledSource (see
// trace/scaler.hpp for the semantics).  factor == 1 returns the input.
inline trace::Trace scale_population(const trace::Trace& input,
                                     std::uint32_t factor,
                                     std::uint64_t seed = 0x5ca1ab1e) {
  if (factor == 1) return input;
  return trace::materialize(trace::PopulationScaledSource(input, factor, seed));
}

inline trace::Trace scale_catalog(const trace::Trace& input,
                                  std::uint32_t factor,
                                  std::uint64_t seed = 0xcab1e5) {
  if (factor == 1) return input;
  return trace::materialize(trace::CatalogScaledSource(input, factor, seed));
}

}  // namespace vodcache::test
