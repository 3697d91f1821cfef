// bench_e2e: one repetition of one benchmark workload, run as a fresh
// process (the cost a command-line user pays).  run.py drives it.
//
//   bench_e2e --workload NAME --seed S --mode e2e|traced|probe [--smoke]
//
// e2e     Builds the workload (session source + VodSystem) kSetups times,
//         times VodSystem::run() on the last build, checks the report's
//         conservation identities and prints one JSON line: end-to-end
//         numbers, the report counters, the report digest and the
//         executor's scheduling stats.
// traced  Replays the same workload serially through the library's public
//         layer calls — SessionStream::next, the topology demux,
//         ReplayBoard/FutureIndex/TierPlanBuilder, NeighborhoodShard
//         feed/finish, MediaServer::merge — in the order the serial
//         orchestrator makes them, timing each layer, and prints the
//         per-layer numbers plus the counters run.py checks against the
//         e2e report.  The spans live here, around the calls, not inside
//         the library.
// probe   Times the host-speed probe (below) on the workload's thread
//         count.
//
// --smoke shrinks every workload to 4,000 users x 2 days.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

#include "cache/future_index.hpp"
#include "cache/popularity_board.hpp"
#include "core/neighborhood_shard.hpp"
#include "core/report_json.hpp"
#include "core/tier_system.hpp"
#include "core/vod_system.hpp"
#include "scenario/scenario.hpp"
#include "util/parse.hpp"

using namespace vodcache;

namespace {

// Set-up is a few milliseconds, so one build is mostly noise; a process
// times several and reports its fastest (see run_e2e).
constexpr int kSetups = 15;

struct Workload {
  scenario::ScenarioSpec spec;  // generator + stream adaptors
  core::SystemConfig config;
};

// The four workloads (see README.md for why each exists).  Every seed the
// workload draws derives from `seed`, so one argument re-rolls all inputs.
Workload make_workload(std::string_view name, std::uint64_t seed,
                       bool smoke) {
  Workload w;
  auto& gen = w.spec.workload;
  gen.seed = seed;
  auto& config = w.config;
  config.neighborhood_size = 1000;
  config.per_peer_storage = DataSize::gigabytes(10);
  config.strategy.kind = core::StrategyKind::Lfu;
  config.threads = 4;

  if (name == "paper_lfu") {
    gen.days = 50;
  } else if (name == "shadow_matrix") {
    gen.days = 2;
    config.per_peer_storage = DataSize::gigabytes(1);
    config.shadow_matrix = true;
  } else if (name == "skew_hub_churn") {
    gen.days = 15;
    auto& skew = w.spec.skew;
    skew.enabled = true;
    skew.hot_neighborhoods = 2;
    skew.population_share = 0.6;
    skew.regions = 6;
    skew.regional_affinity = 0.3;
    skew.seed = seed + 1;
    auto& waves = w.spec.release_waves;
    waves.enabled = true;
    waves.period = sim::SimTime::hours(24);
    waves.window = sim::SimTime::hours(12);
    waves.wave_size = 16;
    waves.capture = 0.35;
    waves.seed = seed + 2;
    config.strategy.kind = core::StrategyKind::GlobalLfu;
    config.admission_policy.kind = core::AdmissionKind::SketchLfu;
    config.admission = core::CacheAdmission::Segment;
    config.per_peer_storage = DataSize::gigabytes(1);
    hfc::TierLevelSpec hub;
    hub.fan_in = 8;
    hub.capacity = DataSize::gigabytes(2000);
    config.tiers.push_back(hub);
    config.prefetch.kind = core::PrefetchKind::TopPopular;
    config.prefetch.refresh = sim::SimTime::hours(12);
  } else if (name == "million_nocache") {
    gen.days = 1;
    gen.user_count = 1'000'000;
    config.strategy.kind = core::StrategyKind::None;
    config.threads = 1;
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "'");
  }
  if (smoke) {
    gen.days = 2;
    gen.user_count = 4000;
    config.neighborhood_size = 250;
  }
  // Never more workers than cores: reports are identical at every thread
  // count, so clamping changes only the timing.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  config.threads = std::min(config.threads, cores);
  return w;
}

double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank quantile of an already sorted sample.
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

// FNV-1a 64 over the full JSON report: the digest pinned per workload.
std::string fnv1a_hex(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// One flat JSON object on one line; keys and string values are
// identifiers, so nothing needs escaping.
class JsonLine {
 public:
  JsonLine() { out_.precision(17); }
  JsonLine& num(const char* key, double value) {
    key_(key) << value;
    return *this;
  }
  JsonLine& count(const char* key, std::uint64_t value) {
    key_(key) << value;
    return *this;
  }
  JsonLine& str(const char* key, const std::string& value) {
    key_(key) << '"' << value << '"';
    return *this;
  }
  JsonLine& list(const char* key, const std::vector<std::string>& values) {
    key_(key) << '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      out_ << (i ? ",\"" : "\"") << values[i] << '"';
    }
    out_ << ']';
    return *this;
  }
  void print() const { std::cout << '{' << out_.str() << "}\n"; }

 private:
  std::ostream& key_(const char* key) {
    if (!first_) out_ << ',';
    first_ = false;
    return out_ << '"' << key << "\":";
  }
  std::ostringstream out_;
  bool first_ = true;
};

void describe(JsonLine& json, std::string_view name, std::uint64_t seed,
              const Workload& w) {
  json.str("workload", std::string(name))
      .count("seed", seed)
      .count("threads", w.config.threads)
      .num("chunk_s",
           static_cast<double>(w.config.stream_chunk.millis_count()) / 1000.0)
      .count("days", static_cast<std::uint64_t>(w.spec.workload.days))
      .count("users", w.spec.workload.user_count);
}

int run_e2e(std::string_view name, std::uint64_t seed, bool smoke) {
  const Workload w = make_workload(name, seed, smoke);

  // Set-up = what a caller pays before run(): building the session source
  // (catalog, adaptor tables) and the VodSystem (topology, tier system).
  // The shared host's cores run at different speeds (up to 1.7x apart) and
  // a thread stays on the core it lands on, so the builds take the
  // process's cores in turn and the fastest one is reported.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  std::vector<double> setup_s;
  std::unique_ptr<scenario::ScenarioWorkload> workload;
  std::unique_ptr<core::VodSystem> system;
  for (int i = 0; i < kSetups; ++i) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<std::size_t>(i) % cpus.size()], &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    system.reset();
    workload.reset();
    const auto begin = std::chrono::steady_clock::now();
    workload = std::make_unique<scenario::ScenarioWorkload>(
        w.spec, w.config.neighborhood_size);
    system = std::make_unique<core::VodSystem>(workload->source(), w.config);
    setup_s.push_back(seconds_since(begin));
  }
  if (!cpus.empty()) sched_setaffinity(0, sizeof allowed, &allowed);

  auto begin = std::chrono::steady_clock::now();
  const core::SimulationReport report = system->run();
  const double run_s = seconds_since(begin);

  begin = std::chrono::steady_clock::now();
  const std::string json = core::to_json(report, /*include_neighborhoods=*/true);
  const double to_json_s = seconds_since(begin);

  std::vector<std::string> failed;
  if (report.sessions == 0) failed.push_back("no_sessions");
  if (report.segments !=
      report.hits + report.cold_misses + report.busy_misses) {
    failed.push_back("segments_conservation");
  }
  for (const auto& n : report.neighborhoods) {
    if (n.segments != n.hits + n.cold_misses + n.busy_misses) {
      failed.push_back("neighborhood_segments_conservation");
      break;
    }
  }
  // coax == peer + tier + origin bits (the origin row carries server_bits).
  double delivered = report.peer_bits + report.server_bits;
  for (std::size_t l = 0; l + 1 < report.tiers.size(); ++l) {
    delivered += report.tiers[l].bits;
  }
  if (std::abs(report.coax_bits - delivered) >
      1e-6 * std::max(1.0, std::abs(report.coax_bits))) {
    failed.push_back("bits_conservation");
  }

  std::uint64_t cell_segments = 0;
  for (const auto& cell : report.shadow_matrix) cell_segments += cell.segments;
  // With a hub tier the first row is the hub; the origin row is always last.
  const bool hub = report.tiers.size() > 1;
  const std::uint64_t hub_requests = hub ? report.tiers.front().requests : 0;
  const std::uint64_t hub_hits = hub ? report.tiers.front().hits : 0;

  const auto& exec = system->executor_stats();
  double busy_ms = 0.0;
  for (const double ms : exec.worker_busy_ms) busy_ms += ms;
  const double capacity_ms =
      exec.wall_ms * static_cast<double>(exec.worker_busy_ms.size());

  JsonLine out;
  describe(out, name, seed, w);
  out.str("mode", "e2e")
      .num("setup_s", *std::min_element(setup_s.begin(), setup_s.end()))
      .num("run_s", run_s)
      .num("peak_rss_mb", peak_rss_mb())
      .num("hit_ratio", report.hit_ratio())
      .num("server_peak_gbps", report.server_peak.mean.gbps())
      .str("digest", fnv1a_hex(json))
      .num("to_json_s", to_json_s)
      .count("json_bytes", json.size())
      .count("sessions", report.sessions)
      .count("segments", report.segments)
      .count("hits", report.hits)
      .count("cold_misses", report.cold_misses)
      .count("busy_misses", report.busy_misses)
      .count("fills", report.fills)
      .count("evictions", report.evictions)
      .count("admission_denials", report.admission_denials)
      .count("hub_requests", hub_requests)
      .count("hub_hits", hub_hits)
      .count("shadow_cell_segments", cell_segments)
      .num("server_bits", report.server_bits)
      .count("executor_jobs", exec.executed)
      .count("executor_steals", exec.steals)
      .num("executor_utilization", exec.utilization())
      .num("executor_busy_s", busy_ms / 1000.0)
      .num("executor_idle_s", std::max(0.0, capacity_ms - busy_ms) / 1000.0)
      .list("failed_checks", failed)
      .print();
  return 0;
}

// Pulls the stream one orchestrator chunk at a time: the sessions sharing
// the first pending session's stream_chunk slot, exactly as the serial
// demux cuts them.
class ChunkReader {
 public:
  ChunkReader(const trace::SessionSource& source, sim::SimTime chunk)
      : stream_(source.open()), chunk_ms_(chunk.millis_count()) {
    more_ = stream_->next(pending_);
  }

  bool next(std::vector<trace::SessionRecord>& out) {
    out.clear();
    if (!more_) return false;
    const std::int64_t end =
        (pending_.start.millis_count() / chunk_ms_ + 1) * chunk_ms_;
    while (more_ && pending_.start.millis_count() < end) {
      out.push_back(pending_);
      more_ = stream_->next(pending_);
    }
    return true;
  }

 private:
  std::unique_ptr<trace::SessionStream> stream_;
  std::int64_t chunk_ms_;
  trace::SessionRecord pending_;
  bool more_ = false;
};

// Accumulates wall time into one layer's total.
class Span {
 public:
  explicit Span(double& total)
      : total_(total), begin_(std::chrono::steady_clock::now()) {}
  ~Span() { total_ += seconds_since(begin_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& total_;
  std::chrono::steady_clock::time_point begin_;
};

int run_traced(std::string_view name, std::uint64_t seed, bool smoke) {
  const Workload w = make_workload(name, seed, smoke);
  const core::SystemConfig& config = w.config;
  if (!config.peer_failures.empty() || config.policy_switch) {
    throw std::logic_error("the traced pass mirrors failure-free, "
                           "non-switching configs only");
  }
  config.validate();
  const scenario::ScenarioWorkload workload(w.spec, config.neighborhood_size);
  const trace::SessionSource& source = workload.source();
  const auto& catalog = source.catalog();
  const auto topology = hfc::Topology::build(
      source.user_count(), config.neighborhood_size, config.tiers);
  const auto shard_count = topology.neighborhood_count();

  double next_s = 0, demux_s = 0, prepass_add_s = 0, prepass_finalize_s = 0,
         build_s = 0, feed_s = 0, finish_s = 0, merge_s = 0;
  const auto wall_begin = std::chrono::steady_clock::now();

  // Prepass products, by the same rules as the orchestrator's.
  std::unique_ptr<core::TierSystem> tiers;
  if (!config.tiers.empty()) {
    tiers = std::make_unique<core::TierSystem>(topology,
                                               config.prefetch.refresh);
  }
  const bool need_board =
      config.strategy.kind == core::StrategyKind::GlobalLfu ||
      config.shadow_matrix;
  const bool need_future =
      config.strategy.kind == core::StrategyKind::Oracle ||
      config.shadow_matrix;
  const bool need_tiers =
      tiers != nullptr && config.prefetch.kind != core::PrefetchKind::None &&
      std::any_of(config.tiers.begin(), config.tiers.end(),
                  [](const auto& t) { return t.capacity > DataSize{}; });

  std::shared_ptr<cache::ReplayBoard> board;
  std::vector<cache::FutureIndex> future;
  const cache::FutureIndex empty_future;
  std::vector<trace::SessionRecord> chunk;
  if (need_board || need_future || need_tiers) {
    std::unique_ptr<core::TierPlanBuilder> plans;
    {
      Span span(prepass_add_s);
      if (need_board) {
        board = std::make_shared<cache::ReplayBoard>(
            catalog.size(), config.strategy.lfu_history,
            config.strategy.global_lag);
        if (const auto hint = source.session_count_hint(); hint > 0) {
          board->reserve(static_cast<std::size_t>(hint));
        }
      }
      if (need_future) {
        future.resize(shard_count);
        for (auto& index : future) index = cache::FutureIndex(catalog.size());
      }
      if (need_tiers) {
        plans = std::make_unique<core::TierPlanBuilder>(topology, config,
                                                        catalog);
      }
    }
    std::unique_ptr<ChunkReader> reader;
    {
      Span span(next_s);
      reader = std::make_unique<ChunkReader>(source, config.stream_chunk);
    }
    while (true) {
      {
        Span span(next_s);
        if (!reader->next(chunk)) break;
      }
      Span span(prepass_add_s);
      for (const auto& r : chunk) {
        if (need_board) board->add(r.program, r.start);
        if (need_future || need_tiers) {
          const auto n = topology.neighborhood_of(r.user);
          if (need_future) future[n.value()].add(r.program, r.start);
          if (need_tiers) plans->observe(n, r.program, r.start);
        }
      }
    }
    Span span(prepass_finalize_s);
    if (need_board) board->freeze();
    for (auto& index : future) index.freeze();
    if (need_tiers) tiers->set_plans(plans->finish(source.horizon()));
  }

  std::vector<std::unique_ptr<core::NeighborhoodShard>> shards;
  {
    Span span(build_s);
    shards.reserve(shard_count);
    for (std::uint32_t n = 0; n < shard_count; ++n) {
      const NeighborhoodId id{n};
      shards.push_back(std::make_unique<core::NeighborhoodShard>(
          id, topology.size_of(id), catalog, source.horizon(), config,
          n < future.size() ? &future[n] : &empty_future, board,
          std::vector<core::NeighborhoodShard::PendingFailure>{}, tiers.get(),
          tiers != nullptr ? tiers->node_path(id)
                           : std::vector<std::uint32_t>{}));
    }
  }

  std::vector<std::vector<core::NeighborhoodShard::StreamSession>> batches(
      shard_count);
  std::vector<std::uint32_t> active;
  std::vector<double> feed_call_s;
  std::vector<double> shard_busy_s(shard_count, 0.0);
  std::uint64_t index = 0;
  std::unique_ptr<ChunkReader> reader;
  {
    Span span(next_s);
    reader = std::make_unique<ChunkReader>(source, config.stream_chunk);
  }
  while (true) {
    {
      Span span(next_s);
      if (!reader->next(chunk)) break;
    }
    {
      Span span(demux_s);
      for (const auto n : active) batches[n].clear();
      active.clear();
      for (const auto& r : chunk) {
        const auto n = topology.neighborhood_of(r.user).value();
        if (batches[n].empty()) active.push_back(n);
        batches[n].push_back({r, index++, topology.peer_of(r.user)});
      }
    }
    for (const auto n : active) {
      const auto begin = std::chrono::steady_clock::now();
      shards[n]->feed(batches[n]);
      const double dt = seconds_since(begin);
      feed_call_s.push_back(dt);
      shard_busy_s[n] += dt;
      feed_s += dt;
    }
  }
  for (std::uint32_t n = 0; n < shard_count; ++n) {
    const auto begin = std::chrono::steady_clock::now();
    shards[n]->finish(sim::SimTime::millis(-1));  // no failure waves
    const double dt = seconds_since(begin);
    shard_busy_s[n] += dt;
    finish_s += dt;
  }

  core::MediaServer media(source.horizon(), config.meter_bucket);
  {
    Span span(merge_s);
    for (const auto& shard : shards) media.merge(shard->media_server());
  }
  const double wall_s = seconds_since(wall_begin);

  core::IndexServer::Counters sum;
  std::uint64_t hub_hits = 0, cells = 0, cell_segments = 0;
  for (const auto& shard : shards) {
    const auto& c = shard->index_server().counters();
    sum.sessions += c.sessions;
    sum.segments += c.segments;
    sum.hits += c.hits;
    sum.cold_misses += c.cold_misses;
    sum.busy_misses += c.busy_misses;
    sum.fills += c.fills;
    sum.evictions += c.evictions;
    sum.admission_denials += c.admission_denials;
    if (!c.tier_hits.empty()) hub_hits += c.tier_hits.front();
    if (const auto* bank = shard->shadow_bank()) {
      cells = bank->pair_count();
      for (std::size_t p = 0; p < bank->pair_count(); ++p) {
        cell_segments += bank->counters(p).segments;
      }
    }
  }

  std::sort(feed_call_s.begin(), feed_call_s.end());
  const double busy_total =
      std::max(1e-12, feed_s + finish_s);  // shard work, summed
  const double hottest =
      *std::max_element(shard_busy_s.begin(), shard_busy_s.end());

  JsonLine out;
  describe(out, name, seed, w);
  out.str("mode", "traced")
      .num("wall_s", wall_s)
      .num("next_s", next_s)
      .num("demux_s", demux_s)
      .num("prepass_add_s", prepass_add_s)
      .num("prepass_finalize_s", prepass_finalize_s)
      .count("board_entries", board ? board->size() : 0)
      .num("build_s", build_s)
      .count("shard_count", shard_count)
      .num("feed_s", feed_s)
      .count("feed_calls", feed_call_s.size())
      .num("feed_p50_s", quantile_sorted(feed_call_s, 0.50))
      .num("feed_p99_s", quantile_sorted(feed_call_s, 0.99))
      .num("finish_s", finish_s)
      .num("hottest_share", hottest / busy_total)
      .num("merge_s", merge_s)
      .count("shadow_cells", cells)
      .count("sessions", sum.sessions)
      .count("segments", sum.segments)
      .count("hits", sum.hits)
      .count("cold_misses", sum.cold_misses)
      .count("busy_misses", sum.busy_misses)
      .count("fills", sum.fills)
      .count("evictions", sum.evictions)
      .count("admission_denials", sum.admission_denials)
      .count("hub_hits", hub_hits)
      .count("shadow_cell_segments", cell_segments)
      .num("server_bits", media.meter().total_bits())
      .print();
  return 0;
}

// Host-speed probe: random read-modify-writes over a 64 MiB table, then a
// sort — the mix of memory latency and branchy compute the replay itself
// spends its time on.  The shared host this benchmark runs on drifts by up
// to 2x within minutes; the probe drifts with it, and run.py scales the
// replay's times by the probe timed next to them.  The kernel uses nothing
// from the library, so no change to vodcache can move it.
constexpr int kProbeSamples = 3;

// One thread's probe: the kernel kProbeSamples times over tables faulted
// in beforehand, so only the kernel is timed; the median sample.
double probe_thread_seconds(std::uint64_t x, std::uint64_t& sink) {
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint64_t> table(std::size_t{1} << 23, 1);  // 64 MiB
  std::vector<std::uint32_t> unsorted(std::size_t{1} << 19);
  for (auto& key : unsorted) key = static_cast<std::uint32_t>(next());
  std::vector<std::uint32_t> keys(unsorted.size());
  std::vector<double> samples;
  for (int sample = 0; sample < kProbeSamples; ++sample) {
    const auto begin = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < table.size() / 2; ++i) {
      auto& slot = table[next() & (table.size() - 1)];
      slot += x;
      sink += slot;
    }
    std::copy(unsorted.begin(), unsorted.end(), keys.begin());
    std::sort(keys.begin(), keys.end());
    sink += keys[keys.size() / 2];
    samples.push_back(seconds_since(begin));
  }
  return median(samples);
}

// The probe on `threads` threads at once, each on its own tables, as the
// replay loads every worker.  Work stealing lets the replay use whatever
// each core gives, so the result is the time at the threads' mean speed.
double probe_seconds(unsigned threads) {
  std::vector<std::uint64_t> sinks(threads, 0);
  std::vector<double> seconds(threads, 0.0);
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 1; t < threads; ++t) {
      pool.emplace_back([&, t] {
        seconds[t] = probe_thread_seconds(0x9E3779B97F4A7C15ULL + t, sinks[t]);
      });
    }
    seconds[0] = probe_thread_seconds(0x9E3779B97F4A7C15ULL, sinks[0]);
  }
  std::uint64_t sum = 0;
  for (const auto s : sinks) sum += s;
  if (sum == 1) std::cerr << "probe sink\n";  // keeps the kernel observable
  double speed = 0.0;
  for (const double t : seconds) speed += 1.0 / t;
  return static_cast<double>(threads) / speed;
}

int run_probe(std::string_view name, std::uint64_t seed) {
  const Workload w = make_workload(name, seed, /*smoke=*/false);
  JsonLine out;
  out.str("mode", "probe")
      .count("threads", w.config.threads)
      .num("probe_s", probe_seconds(w.config.threads))
      .print();
  return 0;
}

int usage() {
  std::cerr << "usage: bench_e2e --workload NAME --seed S "
               "--mode e2e|traced|probe [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, mode;
  std::optional<std::uint64_t> seed;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (i + 1 < argc && arg == "--workload") {
      workload = argv[++i];
    } else if (i + 1 < argc && arg == "--mode") {
      mode = argv[++i];
    } else if (i + 1 < argc && arg == "--seed") {
      seed = util::parse_strict<std::uint64_t>(argv[++i]);
      if (!seed) return usage();
    } else {
      return usage();
    }
  }
  if (workload.empty() || !seed) return usage();
  try {
    if (mode == "e2e") return run_e2e(workload, *seed, smoke);
    if (mode == "traced") return run_traced(workload, *seed, smoke);
    if (mode == "probe") return run_probe(workload, *seed);
  } catch (const std::exception& error) {
    std::cerr << "bench_e2e: " << error.what() << '\n';
    return 1;
  }
  return usage();
}
