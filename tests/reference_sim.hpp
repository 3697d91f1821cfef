// An independent, deliberately-naive re-implementation of the simulation
// semantics (flat vectors and linear scans; no heaps, no ordered indexes,
// no lazy maintenance).  Property tests replay random workloads through
// both this and core::VodSystem and demand identical counters — catching
// bugs in the production engine's clever data structures (lazy heaps,
// the placement tree, ordered cached-set indexes, deferred re-ranking).
//
// Supports StrategyKind::{None, Lru, Lfu, GlobalLfu, GreedyDual} with
// whole-program admission, with and without busy-miss replication, gated
// by AdmissionKind::{Always, SecondHit, SketchLfu}.  GlobalLFU counts by
// scanning one global access log, the whole system's session starts so far
// in the merged event order.  GreedyDual prices from lifetime access
// counts, an inflation level and each resident's H as of its last touch.
// Second-hit reads each program's last two accesses, never aged; the
// sketch gate replays the neighborhood's whole access log into a fresh
// count-min sketch at every question.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "cache/sketch.hpp"
#include "core/config.hpp"
#include "hfc/topology.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace vodcache::test {

struct ReferenceResult {
  std::uint64_t hits = 0;
  std::uint64_t cold_misses = 0;
  std::uint64_t busy_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t fills = 0;
  std::uint64_t admission_denials = 0;
  double server_bits = 0.0;
  double coax_bits = 0.0;
};

namespace detail {

struct RefPeer {
  std::int64_t used_bytes = 0;
  std::vector<sim::SimTime> active_ends;

  int active(sim::SimTime now) {
    std::erase_if(active_ends, [now](sim::SimTime end) { return end <= now; });
    return static_cast<int>(active_ends.size());
  }
};

struct RefSegment {
  std::uint32_t program;
  std::uint32_t index;
  std::uint32_t peer;
  std::int64_t bytes;
};

struct RefNeighborhood {
  std::vector<RefPeer> peers;
  std::vector<RefSegment> segments;               // every stored replica
  std::map<std::uint32_t, std::int64_t> committed;  // program -> full bytes
  std::int64_t committed_total = 0;

  // Popularity state.
  struct Access {
    sim::SimTime time;
    std::uint32_t program;
  };
  std::vector<Access> log;                        // all accesses, in order
  std::map<std::uint32_t, std::int64_t> last_seq;
  std::map<std::uint32_t, std::int64_t> counts;   // LFU in-window counts
  std::size_t window_begin = 0;                   // log index of window head

  // GreedyDual: accesses since the start, the inflation level L, and each
  // resident's (H, sequence) as of its admission or latest access.
  std::map<std::uint32_t, std::int64_t> lifetime;
  std::int64_t inflation = 0;
  std::map<std::uint32_t, std::pair<std::int64_t, std::int64_t>> resident_h;

  // Admission gates: every access's program in order (sketch-lfu), and
  // each program's latest and previous access times (second-hit).
  std::vector<std::uint32_t> accessed;
  struct LastTwo {
    sim::SimTime last;
    std::optional<sim::SimTime> previous;
  };
  std::map<std::uint32_t, LastTwo> last_two;

  [[nodiscard]] std::int64_t capacity_bytes(std::int64_t per_peer) const {
    return static_cast<std::int64_t>(peers.size()) * per_peer;
  }
};

// Mirrors LfuStrategy::expire: drop log entries strictly older than
// t - history from the counts (only ever called on access, like production).
inline void ref_expire(RefNeighborhood& n, sim::SimTime t,
                       sim::SimTime history) {
  const sim::SimTime cutoff = t - history;
  while (n.window_begin < n.log.size() &&
         n.log[n.window_begin].time < cutoff) {
    auto& count = n.counts[n.log[n.window_begin].program];
    --count;
    if (count == 0) n.counts.erase(n.log[n.window_begin].program);
    ++n.window_begin;
  }
}

// Every session start in the system so far, per program, in event order.
struct RefGlobalLog {
  struct Entry {
    sim::SimTime time;
    std::uint32_t neighborhood;
  };
  std::vector<std::vector<Entry>> by_program;
  sim::SimTime window;
  sim::SimTime lag;

  // The paper's Global-LFU count as neighborhood `nb` sees it at `now`.
  // Lag 0: accesses with time >= now - window.  Lag > 0, with B the last
  // multiple of the lag <= now: accesses in [B - window, B), plus nb's own
  // accesses at or after B.
  [[nodiscard]] std::int64_t count(std::uint32_t program, std::uint32_t nb,
                                   sim::SimTime now) const {
    const bool lagged = lag > sim::SimTime{};
    const sim::SimTime batch =
        lagged ? sim::SimTime::millis(now.millis_count() / lag.millis_count() *
                                      lag.millis_count())
               : now;
    std::int64_t count = 0;
    for (const auto& entry : by_program[program]) {
      if (!lagged) {
        count += entry.time >= now - window ? 1 : 0;
      } else if (entry.time < batch) {
        count += entry.time >= batch - window ? 1 : 0;
      } else {
        count += entry.neighborhood == nb ? 1 : 0;
      }
    }
    return count;
  }
};

// What a score reads besides the neighborhood itself: the strategy, for
// GlobalLFU the global log, this neighborhood's id and the event time, and
// for GreedyDual the catalog's program lengths.
struct RefScoring {
  core::StrategyKind kind;
  const RefGlobalLog* global = nullptr;
  std::uint32_t neighborhood = 0;
  sim::SimTime now;
  const trace::Catalog* catalog = nullptr;
};

// GreedyDual's H at today's inflation: L + accesses x 1,000,000 / length
// in whole seconds (at least 1).
inline std::int64_t ref_greedy_dual_h(const RefNeighborhood& n,
                                      std::uint32_t program,
                                      const trace::Catalog& catalog) {
  const auto it = n.lifetime.find(program);
  const std::int64_t accesses = it == n.lifetime.end() ? 0 : it->second;
  const std::int64_t seconds = std::max<std::int64_t>(
      1, catalog.length(ProgramId{program}).millis_count() / 1000);
  return n.inflation + accesses * 1'000'000 / seconds;
}

// Retention score, mirroring LruStrategy / LfuStrategy / GlobalLfuStrategy
// / GreedyDualScorer.
inline std::pair<std::int64_t, std::int64_t> ref_score(
    const RefNeighborhood& n, std::uint32_t program, const RefScoring& by) {
  const auto seq_it = n.last_seq.find(program);
  const std::int64_t seq = seq_it == n.last_seq.end() ? 0 : seq_it->second;
  if (by.kind == core::StrategyKind::Lru) return {seq, 0};
  if (by.kind == core::StrategyKind::GlobalLfu) {
    return {by.global->count(program, by.neighborhood, by.now), seq};
  }
  if (by.kind == core::StrategyKind::GreedyDual) {
    // A resident keeps the H it had at its last touch; a candidate is
    // priced at today's L.
    const auto resident = n.resident_h.find(program);
    if (resident != n.resident_h.end()) return resident->second;
    return {ref_greedy_dual_h(n, program, *by.catalog), seq};
  }
  const auto count_it = n.counts.find(program);
  return {count_it == n.counts.end() ? 0 : count_it->second, seq};
}

// Lowest-scoring committed program (ties impossible: seqs are unique).
inline std::optional<std::uint32_t> ref_victim(const RefNeighborhood& n,
                                               const RefScoring& by) {
  std::optional<std::uint32_t> victim;
  std::pair<std::int64_t, std::int64_t> best{0, 0};
  for (const auto& [program, bytes] : n.committed) {
    const auto score = ref_score(n, program, by);
    if (!victim || score < best) {
      victim = program;
      best = score;
    }
  }
  return victim;
}

// Removes `program` from the cache.  A capacity eviction always takes
// the minimum, so under GreedyDual it lifts L to the victim's H.
inline void ref_evict(RefNeighborhood& n, std::uint32_t program) {
  if (const auto resident = n.resident_h.find(program);
      resident != n.resident_h.end()) {
    n.inflation = std::max(n.inflation, resident->second.first);
    n.resident_h.erase(resident);
  }
  for (const auto& segment : n.segments) {
    if (segment.program == program) {
      n.peers[segment.peer].used_bytes -= segment.bytes;
    }
  }
  std::erase_if(n.segments, [program](const RefSegment& s) {
    return s.program == program;
  });
  n.committed_total -= n.committed.at(program);
  n.committed.erase(program);
}

// Peer with most free bytes not already holding this segment
// (tie -> larger index, matching the production heap's pair ordering).
inline std::optional<std::uint32_t> ref_best_peer(
    const RefNeighborhood& n, std::int64_t per_peer, std::int64_t bytes,
    std::uint32_t program, std::uint32_t index) {
  std::optional<std::uint32_t> best;
  std::int64_t best_free = -1;
  for (std::uint32_t p = 0; p < n.peers.size(); ++p) {
    bool holds = false;
    for (const auto& segment : n.segments) {
      if (segment.program == program && segment.index == index &&
          segment.peer == p) {
        holds = true;
        break;
      }
    }
    if (holds) continue;
    const std::int64_t free = per_peer - n.peers[p].used_bytes;
    if (free >= bytes && free >= best_free) {  // >=: larger index wins ties
      best = p;
      best_free = free;
    }
  }
  return best;
}

// The sketch-lfu gate's estimate for `program`: the neighborhood's whole
// access log so far, replayed into a fresh sketch of the registry's
// geometry (1024 x 4, halving every 256 accesses).
inline std::uint32_t ref_sketch_estimate(const RefNeighborhood& n,
                                         std::uint32_t program) {
  cache::CountMinSketch sketch(1024, 4, 256);
  for (const std::uint32_t accessed : n.accessed) sketch.increment(accessed);
  return sketch.estimate(program);
}

// May `program`, missed at `now`, enter the cache?  Mirrors the registry's
// second-hit (probation window) and sketch-lfu (estimate >= 2) gates.
inline bool ref_gate_admits(const RefNeighborhood& n, std::uint32_t program,
                            sim::SimTime now,
                            const core::AdmissionPolicyConfig& gate) {
  switch (gate.kind) {
    case core::AdmissionKind::SecondHit: {
      const auto& previous = n.last_two.at(program).previous;
      return previous && now - *previous <= gate.probation_window;
    }
    case core::AdmissionKind::SketchLfu:
      return ref_sketch_estimate(n, program) >= 2;
    default:
      return true;
  }
}

}  // namespace detail

inline ReferenceResult reference_simulate(const trace::Trace& trace,
                                          const core::SystemConfig& config) {
  VODCACHE_EXPECTS(config.admission == core::CacheAdmission::WholeProgram);
  VODCACHE_EXPECTS(config.strategy.kind == core::StrategyKind::None ||
                   config.strategy.kind == core::StrategyKind::Lru ||
                   config.strategy.kind == core::StrategyKind::Lfu ||
                   config.strategy.kind == core::StrategyKind::GlobalLfu ||
                   config.strategy.kind == core::StrategyKind::GreedyDual);
  const auto& gate = config.admission_policy;
  VODCACHE_EXPECTS(gate.kind == core::AdmissionKind::Always ||
                   gate.kind == core::AdmissionKind::SecondHit ||
                   gate.kind == core::AdmissionKind::SketchLfu);
  using namespace detail;

  const auto topology =
      hfc::Topology::build(trace.user_count(), config.neighborhood_size);
  const auto per_peer = static_cast<std::int64_t>(
      config.per_peer_storage.byte_count());
  const auto kind = config.strategy.kind;
  const auto history =
      kind == core::StrategyKind::Lfu ? config.strategy.lfu_history
                                      : sim::SimTime{};

  std::vector<RefNeighborhood> neighborhoods(topology.neighborhood_count());
  for (std::uint32_t i = 0; i < neighborhoods.size(); ++i) {
    neighborhoods[i].peers.resize(topology.size_of(NeighborhoodId{i}));
  }

  RefGlobalLog global{
      std::vector<std::vector<RefGlobalLog::Entry>>(trace.catalog().size()),
      config.strategy.lfu_history, config.strategy.global_lag};
  auto scoring = [&](std::uint32_t nb, sim::SimTime now) {
    return RefScoring{kind, &global, nb, now, &trace.catalog()};
  };

  ReferenceResult result;
  std::int64_t next_seq = 0;

  struct PendingSegment {
    sim::SimTime at;
    std::size_t session;
    std::uint64_t order;
  };
  struct Session {
    std::uint32_t neighborhood;
    std::uint32_t viewer;
    std::uint32_t program;
    sim::SimTime start;
    sim::SimTime end;
    bool admit;
  };
  std::vector<Session> sessions;
  // (time, order)-keyed FIFO queue of segment boundaries.
  std::multimap<std::pair<std::int64_t, std::uint64_t>, std::size_t> queue;
  std::uint64_t order = 0;

  const double rate_bps = config.stream_rate.bps();
  const std::int64_t segment_ms = config.segment_duration.millis_count();
  const std::int64_t horizon_ms = trace.horizon().millis_count();

  auto account = [&](double& sink, sim::SimTime a, sim::SimTime b) {
    // Horizon-clipped, like the production meters.
    const auto lo = std::max<std::int64_t>(a.millis_count(), 0);
    const auto hi = std::min(b.millis_count(), horizon_ms);
    if (hi > lo) sink += rate_bps * static_cast<double>(hi - lo) / 1000.0;
  };

  auto play_segment = [&](std::size_t slot, sim::SimTime at) {
    const Session& session = sessions[slot];
    auto& n = neighborhoods[session.neighborhood];

    const std::int64_t watched = (at - session.start).millis_count();
    const auto seg = static_cast<std::uint32_t>(watched / segment_ms);
    const auto boundary =
        session.start + sim::SimTime::millis((seg + 1) * segment_ms);
    const auto tx_end = std::min(boundary, session.end);
    const auto nominal_end = std::min(
        boundary, session.start + trace.catalog().length(
                                      ProgramId{session.program}));
    const bool full_slice = tx_end >= nominal_end;

    account(result.coax_bits, at, tx_end);

    // Try every replica in insertion order.
    bool served_by_peer = false;
    bool was_cached = false;
    for (auto& segment : n.segments) {
      if (segment.program != session.program || segment.index != seg) continue;
      was_cached = true;
      auto& peer = n.peers[segment.peer];
      if (peer.active(at) < config.peer_stream_limit) {
        peer.active_ends.push_back(tx_end);
        served_by_peer = true;
        break;
      }
    }

    if (served_by_peer) {
      ++result.hits;
    } else {
      (was_cached ? result.busy_misses : result.cold_misses) += 1;
      account(result.server_bits, at, tx_end);
      if (session.admit && full_slice &&
          (!was_cached || config.replicate_on_busy) &&
          n.committed.contains(session.program)) {
        const auto bytes = static_cast<std::int64_t>(
            rate_bps * (tx_end - at).seconds_f() / 8.0 + 0.5);
        // Evict until placement is possible.
        const auto by = scoring(session.neighborhood, at);
        for (;;) {
          if (ref_best_peer(n, per_peer, bytes, session.program, seg)) break;
          const auto victim = ref_victim(n, by);
          if (!victim || *victim == session.program) break;
          if (ref_score(n, session.program, by) <=
              ref_score(n, *victim, by)) {
            break;
          }
          ref_evict(n, *victim);
          ++result.evictions;
        }
        if (const auto peer =
                ref_best_peer(n, per_peer, bytes, session.program, seg)) {
          n.peers[*peer].used_bytes += bytes;
          n.segments.push_back({session.program, seg, *peer, bytes});
          ++result.fills;
        }
      }
    }

    if (tx_end < session.end) {
      queue.emplace(std::pair{tx_end.millis_count(), order++}, slot);
    }
  };

  auto start_session = [&](const trace::SessionRecord& record) {
    const auto nb = topology.neighborhood_of(record.user).value();
    auto& n = neighborhoods[nb];
    const auto program = record.program.value();

    // Popularity signal (mirrors record_access).
    if (kind != core::StrategyKind::None) {
      ref_expire(n, record.start, history);
      n.last_seq[program] = ++next_seq;
      if (kind == core::StrategyKind::Lfu &&
          history > sim::SimTime{}) {
        n.log.push_back({record.start, program});
        ++n.counts[program];
      } else if (kind == core::StrategyKind::Lru) {
        n.log.push_back({record.start, program});  // unused, keeps shape
      } else if (kind == core::StrategyKind::GlobalLfu) {
        global.by_program[program].push_back({record.start, nb});
      } else if (kind == core::StrategyKind::GreedyDual) {
        ++n.lifetime[program];
        // A touch re-prices the resident at today's L.
        if (const auto resident = n.resident_h.find(program);
            resident != n.resident_h.end()) {
          resident->second = {
              ref_greedy_dual_h(n, program, trace.catalog()), next_seq};
        }
      }
      n.accessed.push_back(program);
      const auto seen = n.last_two.find(program);
      if (seen == n.last_two.end()) {
        n.last_two.emplace(program, RefNeighborhood::LastTwo{record.start, {}});
      } else {
        seen->second = {record.start, seen->second.last};
      }
    }

    // Whole-program admission.
    bool admit = false;
    if (kind != core::StrategyKind::None) {
      if (n.committed.contains(program)) {
        admit = true;
      } else if (!ref_gate_admits(n, program, record.start, gate)) {
        ++result.admission_denials;
      } else {
        const auto full = static_cast<std::int64_t>(
            trace.catalog()
                .program_size(record.program, config.stream_rate)
                .byte_count());
        admit = true;
        const auto by = scoring(nb, record.start);
        while (n.committed_total + full > n.capacity_bytes(per_peer)) {
          const auto victim = ref_victim(n, by);
          if (!victim || *victim == program ||
              ref_score(n, program, by) <= ref_score(n, *victim, by)) {
            admit = false;
            break;
          }
          ref_evict(n, *victim);
          ++result.evictions;
        }
        if (admit) {
          n.committed.emplace(program, full);
          n.committed_total += full;
          if (kind == core::StrategyKind::GreedyDual) {
            n.resident_h[program] = ref_score(n, program, by);
          }
        }
      }
    }

    // Viewer playback slot (never blocked).
    const auto viewer = topology.peer_of(record.user).value();
    const auto end = record.start + record.duration;
    n.peers[viewer].active(record.start);
    n.peers[viewer].active_ends.push_back(end);

    sessions.push_back(
        {nb, viewer, program, record.start, end, admit});
    play_segment(sessions.size() - 1, record.start);
  };

  // Merge the sorted trace with the boundary queue, boundaries first on ties
  // (mirrors VodSystem::run).
  std::size_t next = 0;
  const auto& records = trace.sessions();
  while (next < records.size() || !queue.empty()) {
    const bool take_boundary =
        !queue.empty() &&
        (next >= records.size() ||
         queue.begin()->first.first <= records[next].start.millis_count());
    if (take_boundary) {
      const auto it = queue.begin();
      const auto slot = it->second;
      const auto at = sim::SimTime::millis(it->first.first);
      queue.erase(it);
      play_segment(slot, at);
    } else {
      start_session(records[next]);
      ++next;
    }
  }
  return result;
}

}  // namespace vodcache::test
