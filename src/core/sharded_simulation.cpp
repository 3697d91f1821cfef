#include "core/sharded_simulation.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "core/job_graph.hpp"
#include "sim/peak_stats.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace vodcache::core {

ShardedSimulation::ShardedSimulation(const trace::SessionSource& source,
                                     SystemConfig config)
    : source_(&source),
      config_(config),
      topology_(hfc::Topology::build(source.user_count(),
                                     config.neighborhood_size, config.tiers)) {
  config_.validate();
  if (!config_.tiers.empty()) {
    tiers_ = std::make_unique<TierSystem>(topology_, config_.prefetch.refresh);
  }
}

ShardedSimulation::Needs ShardedSimulation::needs() const {
  Needs need;
  // Shadow-matrix and policy-switch modes instantiate *every* registered
  // scorer, so the GlobalLFU board and Oracle future index must exist
  // whatever the primary strategy is.
  need.board = config_.builds_global_board();
  need.future = config_.strategy.kind == StrategyKind::Oracle ||
                config_.shadow_matrix || config_.policy_switch;
  need.flush = !config_.peer_failures.empty();
  // Tier prefetch plans are whole-trace knowledge too: a no-op prefetch
  // (None) or all-zero tier capacities leaves every plan empty, so those
  // runs skip the prepass like any other single-pass config.
  need.tiers =
      tiers_ != nullptr && config_.prefetch.kind != PrefetchKind::None &&
      std::any_of(config_.tiers.begin(), config_.tiers.end(),
                  [](const auto& t) { return t.capacity > DataSize{}; });
  // How far past a chunk's end its feed reads each product: the board
  // answers events up to its seal and a top-popular plan is published
  // when its window begins, so neither looks ahead; an oracle plan is
  // packed from its own window, so it needs one refresh window more; the
  // future index is read whole, so its lookahead is the whole trace.
  if (need.tiers && config_.prefetch.kind == PrefetchKind::Oracle) {
    need.lookahead = config_.prefetch.refresh;
  }
  if (need.future) need.lookahead = source_->horizon();
  return need;
}

void ShardedSimulation::allocate_products(const Needs& need) {
  if (need.board) {
    board_ = std::make_shared<cache::ReplayBoard>(
        source_->catalog().size(), config_.strategy.lfu_history,
        config_.strategy.global_lag);
    if (const auto hint = source_->session_count_hint(); hint > 0) {
      board_->reserve(static_cast<std::size_t>(hint));
    }
  }
  if (need.tiers) tiers_->size_plans(source_->horizon());
  if (need.future) {
    future_.resize(topology_.neighborhood_count());
    for (auto& index : future_) {
      index = cache::FutureIndex(source_->catalog().size());
    }
  }
}

void ShardedSimulation::build_shards() {
  const auto neighborhoods = topology_.neighborhood_count();

  // Pre-roll failure draws.  The seed's RNG stream runs over neighborhoods
  // in index order within one wave, so a neighborhood's draws depend on
  // the sizes of every earlier neighborhood — they must be rolled here,
  // serially, not inside the shards.
  auto waves = config_.peer_failures;
  std::stable_sort(waves.begin(), waves.end(),
                   [](const auto& a, const auto& b) { return a.time < b.time; });
  std::vector<std::vector<NeighborhoodShard::PendingFailure>> failures(
      neighborhoods);
  for (const auto& wave : waves) {
    Rng rng(wave.seed);
    for (std::uint32_t n = 0; n < neighborhoods; ++n) {
      NeighborhoodShard::PendingFailure pending;
      pending.time = wave.time;
      const auto peers = topology_.size_of(NeighborhoodId{n});
      for (std::uint32_t p = 0; p < peers; ++p) {
        if (rng.bernoulli(wave.fraction)) pending.peers.push_back(PeerId{p});
      }
      failures[n].push_back(std::move(pending));
    }
  }

  shards_.reserve(neighborhoods);
  for (std::uint32_t n = 0; n < neighborhoods; ++n) {
    const NeighborhoodId id{n};
    shards_.push_back(std::make_unique<NeighborhoodShard>(
        id, topology_.size_of(id), source_->catalog(), source_->horizon(),
        config_, n < future_.size() ? &future_[n] : nullptr, board_,
        std::move(failures[n]), tiers_.get(),
        tiers_ != nullptr ? tiers_->node_path(id)
                          : std::vector<std::uint32_t>{}));
  }
}

void ShardedSimulation::run_graph(const Needs& need,
                                  MediaServer& media) {
  const auto shard_count = shards_.size();
  const auto user_count = topology_.user_count();
  const auto catalog_size = source_->catalog().size();

  // Chunk grid: fixed multiples of stream_chunk covering the horizon, with
  // the count capped so a tiny chunk against a huge horizon cannot explode
  // the graph — coarsening merges adjacent chunks, which is invisible to
  // results (chunk boundaries always are) and only trades batch memory.
  std::int64_t chunk_ms = config_.stream_chunk.millis_count();
  const std::int64_t horizon_ms = source_->horizon().millis_count();
  constexpr std::size_t kMaxChunks = 4096;
  auto count_chunks = [&] {
    return static_cast<std::size_t>(horizon_ms / chunk_ms) + 1;
  };
  if (count_chunks() > kMaxChunks) {
    chunk_ms *= static_cast<std::int64_t>(
        (count_chunks() + kMaxChunks - 1) / kMaxChunks);
  }
  const std::size_t chunks = count_chunks();
  // The prepass chain seals its products once per epoch, a run of whole
  // chunks; a few epochs let the feeds start early, and each costs a seal.
  // A lookahead of the whole trace leaves every feed waiting for the last
  // epoch, so the chain is then one job that freezes everything once.
  constexpr std::size_t kMaxEpochs = 16;
  const std::size_t max_epochs =
      need.lookahead >= source_->horizon() ? 1 : kMaxEpochs;
  const auto chunk_end_ms = [chunk_ms](std::size_t k) {
    return static_cast<std::int64_t>(k + 1) * chunk_ms;
  };

  // Batch ring: demux[k] fills slot k % W, every feed[s][k] reads from it,
  // and demux[k + W] may only overwrite it once all of chunk k's feeds are
  // done — the edges below say exactly that, bounding live batch memory to
  // W chunks however far the pipeline runs ahead.  One worker runs the
  // graph inline and can never run ahead, so it gets one slot: more would
  // only hold idle per-shard batch capacity.
  JobExecutor executor(config_.threads);
  constexpr std::size_t kRingWindow = 4;
  const std::size_t window =
      std::min(executor.worker_count() > 1 ? kRingWindow : 1, chunks);
  std::vector<std::vector<std::vector<NeighborhoodShard::StreamSession>>>
      batches(window,
              std::vector<std::vector<NeighborhoodShard::StreamSession>>(
                  shard_count));

  // ---- demux chain state (only touched by the demux jobs, which form a
  // dependency chain — exclusive access without synchronization).
  auto demux_stream = source_->open();
  trace::SessionRecord record;
  bool more = demux_stream->next(record);
  std::uint64_t index = 0;
  sim::SimTime prev;  // 0: sources must not emit negative starts
  const auto segment_ms = config_.segment_duration.millis_count();

  JobGraph graph;

  // Demux nodes: chunk k of the stream into per-shard batches.  Chained —
  // the stream is a single-pass cursor — but free to run ahead of the
  // feeds up to the ring window.  The demux walks the stream in trace
  // order, so it also folds every session into the failure flush time.
  std::vector<JobId> demux_id;
  demux_id.reserve(chunks);
  for (std::size_t k = 0; k < chunks; ++k) {
    demux_id.push_back(graph.add(
        JobKind::Demux,
        [this, &need, &batches, &demux_stream, &record, &more, &index, &prev,
         chunk_end_ms, segment_ms, user_count, catalog_size, window, k,
         chunks] {
          auto& slot = batches[k % window];
          for (auto& batch : slot) batch.clear();
          const auto end_ms = chunk_end_ms(k);
          const bool last = k + 1 == chunks;
          while (more && (last || record.start.millis_count() < end_ms)) {
            // The sorted/ranged contract every source carries; cheap
            // enough to hold even external sources to it record by record.
            VODCACHE_EXPECTS(record.start >= prev);
            VODCACHE_EXPECTS(record.user.value() < user_count);
            VODCACHE_EXPECTS(record.program.value() < catalog_size);
            prev = record.start;
            // Failure flush: the latest segment boundary of any session
            // (boundaries fall at start + k * segment for every k with
            // k * segment < duration).  Waves up to this time are applied
            // system-wide even in neighborhoods whose own events end
            // earlier; later waves never fire.  Stays negative on an empty
            // trace, so nothing flushes.
            if (need.flush) {
              const auto duration_ms = record.duration.millis_count();
              const auto full_boundaries =
                  duration_ms > 0 ? (duration_ms - 1) / segment_ms : 0;
              failure_flush_ = std::max(
                  failure_flush_,
                  record.start +
                      sim::SimTime::millis(full_boundaries * segment_ms));
            }
            const auto n = topology_.neighborhood_of(record.user).value();
            slot[n].push_back({record, index, topology_.peer_of(record.user)});
            ++index;
            more = demux_stream->next(record);
          }
        },
        "demux#" + std::to_string(k)));
    if (k > 0) graph.depend(demux_id[k - 1], demux_id[k]);
  }

  // Prepass chain: the GlobalLFU board, Oracle clairvoyance and tier
  // plans are products of the whole stream, built by a second read of it
  // beside the demux's.  Epoch e reads the sessions of its run of chunks
  // and seals what they complete; the last one freezes everything.  Both
  // streams are opened here, on the calling thread, so sources need not
  // open concurrently.
  const std::size_t epoch_chunks = (chunks + max_epochs - 1) / max_epochs;
  const std::size_t epochs = (chunks + epoch_chunks - 1) / epoch_chunks;
  const auto epoch_end_ms = [&](std::size_t e) {
    return chunk_end_ms(std::min((e + 1) * epoch_chunks, chunks) - 1);
  };
  std::vector<JobId> prepass_id;
  std::unique_ptr<trace::SessionStream> pre_stream;
  trace::SessionRecord pre_record;
  bool pre_more = false;
  std::optional<TierPlanBuilder> plans;
  if (need.board || need.future || need.tiers) {
    pre_stream = source_->open();
    pre_more = pre_stream->next(pre_record);
    if (need.tiers) plans.emplace(topology_, config_, source_->catalog());
    prepass_id.reserve(epochs);
    for (std::size_t e = 0; e < epochs; ++e) {
      prepass_id.push_back(graph.add(
          JobKind::Prepass,
          [this, &need, &pre_stream, &pre_record, &pre_more, &plans,
           epoch_end_ms, e, epochs] {
            const bool last = e + 1 == epochs;
            const auto end_ms = epoch_end_ms(e);
            while (pre_more &&
                   (last || pre_record.start.millis_count() < end_ms)) {
              const auto& r = pre_record;
              if (need.board) board_->add(r.program, r.start);
              if (need.future || plans) {
                const auto n = topology_.neighborhood_of(r.user);
                if (need.future) future_[n.value()].add(r.program, r.start);
                if (plans) plans->observe(n, r.program, r.start);
              }
              pre_more = pre_stream->next(pre_record);
            }
            // Every session before `through` is read: the sealed board
            // answers events up to it, and each tier window planned from
            // sessions before it is published.
            const auto through =
                last ? sim::SimTime::millis(
                           std::numeric_limits<std::int64_t>::max())
                     : sim::SimTime::millis(end_ms);
            if (need.board) {
              if (last) {
                board_->freeze();
              } else {
                board_->seal(through);
              }
            }
            if (last) {
              for (auto& future : future_) future.freeze();
            }
            if (plans) plans->publish(through, *tiers_);
          },
          "prepass#" + std::to_string(e)));
    }
  }

  // The first epoch that seals chunk k's end plus the lookahead.
  const std::int64_t lookahead_ms = need.lookahead.millis_count();
  const auto epoch_for_chunk = [&](std::size_t k) {
    std::size_t e = std::min(k / epoch_chunks, epochs - 1);
    while (e + 1 < epochs && epoch_end_ms(e) < chunk_end_ms(k) + lookahead_ms) {
      ++e;
    }
    return e;
  };

  // Feed nodes: shard s replays its slice of chunk k.  feed[s][k-1] ->
  // feed[s][k] keeps each shard's mutable state owned by one task at a
  // time; which worker runs it is free.  feed[s][k] also waits for the
  // epoch that seals what it reads; the feed chain carries that edge to
  // every later chunk of the same epoch.
  std::vector<std::vector<JobId>> feed_id(
      shard_count, std::vector<JobId>(chunks));
  for (std::size_t s = 0; s < shard_count; ++s) {
    std::optional<std::size_t> sealed_epoch;
    for (std::size_t k = 0; k < chunks; ++k) {
      feed_id[s][k] = graph.add(
          JobKind::Feed,
          [this, &batches, window, s, k] {
            shards_[s]->feed(batches[k % window][s]);
          },
          "feed#" + std::to_string(s) + "." + std::to_string(k));
      graph.depend(demux_id[k], feed_id[s][k]);
      if (k > 0) graph.depend(feed_id[s][k - 1], feed_id[s][k]);
      if (!prepass_id.empty()) {
        const std::size_t e = epoch_for_chunk(k);
        if (sealed_epoch != e) {
          graph.depend(prepass_id[e], feed_id[s][k]);
          sealed_epoch = e;
        }
      }
      // Ring: chunk k's slot may be overwritten once its feeds are done.
      if (k + window < chunks) {
        graph.depend(feed_id[s][k], demux_id[k + window]);
      }
    }
  }
  // The prepass chain's own edges come last, so a worker finishing epoch
  // e runs e + 1 next (a worker runs the child pushed last first) and the
  // feeds it released go to the others.
  for (std::size_t e = 1; e < prepass_id.size(); ++e) {
    graph.depend(prepass_id[e - 1], prepass_id[e]);
  }

  // Finish nodes: drain boundaries and flush trailing failure waves.  By
  // now the whole demux chain is complete (transitively through the feed
  // chain), so the flush time is final.
  std::vector<JobId> finish_id;
  finish_id.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    finish_id.push_back(graph.add(
        JobKind::Finish, [this, s] { shards_[s]->finish(failure_flush_); },
        "finish#" + std::to_string(s)));
    graph.depend(feed_id[s].back(), finish_id[s]);
  }

  // Merge sink: reduce the per-shard central-server slices in neighborhood
  // order — fixed order keeps the floating-point sums, and hence the
  // report, bit-identical across thread counts.
  const JobId merge = graph.add(
      JobKind::Merge,
      [this, &media] {
        for (const auto& shard : shards_) media.merge(shard->media_server());
      },
      "merge");
  for (const JobId fin : finish_id) graph.depend(fin, merge);

  executor_stats_ = executor.run(graph);
}

SimulationReport ShardedSimulation::run() {
  VODCACHE_EXPECTS(!ran_);
  ran_ = true;

  MediaServer media(source_->horizon(), config_.meter_bucket);
  const Needs need = needs();
  allocate_products(need);
  build_shards();
  run_graph(need, media);
  return build_report(media);
}

SimulationReport ShardedSimulation::build_report(
    const MediaServer& media) const {
  SimulationReport report;
  report.strategy = config_.strategy.kind;
  // No cache, no cell, no admission decisions.
  report.admission_policy = config_.strategy.kind == StrategyKind::None
                                ? AdmissionKind::Always
                                : config_.admission_policy.kind;
  report.user_count = source_->user_count();
  report.neighborhood_count = topology_.neighborhood_count();

  // Warmup exclusion, clamped so short demo runs still have samples.
  const auto half_horizon =
      sim::SimTime::millis(source_->horizon().millis_count() / 2);
  const sim::SimTime from = std::min(config_.warmup, half_horizon);
  report.measured_from = from;

  report.server_peak =
      sim::peak_stats(media.meter(), config_.peak_window, from);
  report.server_hourly = media.meter().hourly_profile(from);
  // Meter totals (horizon-clipped) rather than raw counters, so the
  // conservation identity coax == server + peer holds exactly even when a
  // session straddles the end of the trace.
  report.server_bits = media.meter().total_bits();

  std::vector<double> pooled_coax;
  report.neighborhoods.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const IndexServer& server = shard->index_server();
    NeighborhoodReport n;
    n.peer_count = server.peer_count();
    n.coax_peak =
        sim::peak_stats(server.coax_meter(), config_.peak_window, from);
    n.peer_peak =
        sim::peak_stats(server.peer_meter(), config_.peak_window, from);
    // Per-headend fiber feed = coax minus peer-served, bucket by bucket.
    {
      auto fiber =
          server.coax_meter().window_samples_bps(config_.peak_window, from);
      const auto peer_samples =
          server.peer_meter().window_samples_bps(config_.peak_window, from);
      VODCACHE_ASSERT(fiber.size() == peer_samples.size());
      for (std::size_t i = 0; i < fiber.size(); ++i) {
        fiber[i] -= peer_samples[i];
      }
      n.fiber_peak = sim::peak_stats(fiber);
    }
    const auto& c = server.counters();
    n.sessions = c.sessions;
    n.segments = c.segments;
    n.hits = c.hits;
    n.cold_misses = c.cold_misses;
    n.busy_misses = c.busy_misses;
    n.admission_denials = c.admission_denials;
    n.cache_used = server.primary() < server.cells().size()
                       ? server.store().used()
                       : DataSize{};
    n.cache_capacity = config_.per_peer_storage * server.peer_count();
    report.neighborhoods.push_back(n);

    report.sessions += c.sessions;
    report.segments += c.segments;
    report.hits += c.hits;
    report.cold_misses += c.cold_misses;
    report.busy_misses += c.busy_misses;
    report.evictions += c.evictions;
    report.fills += c.fills;
    report.admission_denials += c.admission_denials;
    report.peer_failures += c.peer_failures;
    report.wiped_bytes += c.wiped_bytes;
    report.peer_bits += server.peer_meter().total_bits();
    report.coax_bits += server.coax_meter().total_bits();

    const auto samples =
        server.coax_meter().window_samples_bps(config_.peak_window, from);
    pooled_coax.insert(pooled_coax.end(), samples.begin(), samples.end());
  }
  report.coax_peak_pooled = sim::peak_stats(pooled_coax);

  // Shadow-matrix reduction: sum each pair's counters across shards in
  // shard order (fixed order keeps the bit sums bit-identical across
  // thread counts, same rule as every other merge).  Every shard built
  // its cells from the same registry walk and cells never move, so row p
  // means the same (scorer x admission) everywhere, switching or not.
  if (config_.shadow_matrix && !shards_.empty()) {
    const IndexServer* first = shards_.front()->shadow_bank();
    VODCACHE_ASSERT(first != nullptr);
    report.shadow_matrix.resize(first->pair_count());
    for (std::size_t p = 0; p < first->pair_count(); ++p) {
      report.shadow_matrix[p].scorer = first->cells()[p].scorer_name();
      report.shadow_matrix[p].admission = first->cells()[p].admission_name();
    }
    for (const auto& shard : shards_) {
      const IndexServer* bank = shard->shadow_bank();
      VODCACHE_ASSERT(bank != nullptr &&
                      bank->pair_count() == report.shadow_matrix.size());
      for (std::size_t p = 0; p < bank->pair_count(); ++p) {
        report.shadow_matrix[p] += bank->counters(p);
      }
    }
  }

  // Switch-log merge: shard order, event order within a shard — fixed
  // order like every other merge, and the events themselves are a pure
  // function of each shard's stream, so the log is bit-identical across
  // thread counts and chunk sizes (pinned in
  // tests/policy_switcher_test.cpp).
  if (config_.policy_switch) {
    report.policy_switching = true;
    for (const auto& shard : shards_) {
      const auto log = shard->switch_log();
      report.policy_switches.insert(report.policy_switches.end(), log.begin(),
                                    log.end());
    }
  }

  // Tiered breakdown: per-level hits/bits reduced across shards in shard
  // order (same fixed-order rule as every other merge), then the request
  // chain — each level sees what the levels below did not absorb, and the
  // origin serves the rest.
  if (tiers_ != nullptr) {
    report.prefetch = config_.prefetch.kind;
    const auto levels = tiers_->level_count();
    std::vector<std::uint64_t> level_hits(levels, 0);
    std::vector<double> level_bits(levels, 0.0);
    for (const auto& shard : shards_) {
      const auto& c = shard->index_server().counters();
      for (std::size_t l = 0; l < levels; ++l) {
        level_hits[l] += c.tier_hits[l];
        level_bits[l] += shard->index_server().tier_meter(l).total_bits();
      }
    }
    std::uint64_t reaching = report.cold_misses + report.busy_misses;
    report.tiers.reserve(levels + 1);
    for (std::size_t l = 0; l < levels; ++l) {
      const auto& spec = tiers_->spec(l);
      TierUsageReport tier;
      tier.name = spec.name;
      tier.node_count = topology_.tier_node_count(l);
      tier.requests = reaching;
      tier.hits = level_hits[l];
      tier.bits = level_bits[l];
      tier.cost = level_bits[l] / 8e9 * spec.cost_per_gb;
      reaching -= level_hits[l];
      report.tiers.push_back(std::move(tier));
    }
    TierUsageReport origin;
    origin.name = "origin";
    origin.node_count = 1;
    origin.requests = reaching;
    origin.hits = reaching;
    origin.bits = report.server_bits;
    origin.cost = report.server_bits / 8e9 * config_.origin_cost_per_gb;
    report.tiers.push_back(std::move(origin));
    for (const auto& tier : report.tiers) {
      report.total_transfer_cost += tier.cost;
    }
  }
  return report;
}

}  // namespace vodcache::core
