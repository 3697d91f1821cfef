// Randomized property sweeps (seeded, fully deterministic): components are
// checked against brute-force recomputation over many random inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/ecdf.hpp"
#include "cache/cache_cell.hpp"
#include "cache/future_index.hpp"
#include "cache/lfu.hpp"
#include "cache/oracle.hpp"
#include "cache/popularity_board.hpp"
#include "cache/segment_store.hpp"
#include "cache/victim_index.hpp"
#include "core/policy_registry.hpp"
#include "hfc/settop.hpp"
#include "reference_sim.hpp"
#include "sim/rate_meter.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace vodcache {
namespace {

class Seeded : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, Seeded,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// RateMeter conserves bits for arbitrary in-horizon interval soups.
TEST_P(Seeded, RateMeterConservesArbitraryIntervals) {
  Rng rng(GetParam());
  sim::RateMeter meter(sim::SimTime::days(3), sim::SimTime::minutes(15));
  double expected = 0.0;
  for (int i = 0; i < 500; ++i) {
    const auto begin = sim::SimTime::millis(
        rng.uniform_int(0, sim::SimTime::days(3).millis_count() - 2));
    const auto max_len = sim::SimTime::days(3) - begin;
    const auto len = sim::SimTime::millis(
        rng.uniform_int(1, std::min<std::int64_t>(max_len.millis_count(),
                                                  3'600'000)));
    const double mbps = rng.uniform_double(0.5, 20.0);
    meter.add({begin, begin + len}, DataRate::megabits_per_second(mbps));
    expected += mbps * 1e6 * len.seconds_f();
  }
  EXPECT_NEAR(meter.total_bits(), expected, expected * 1e-9);
  // Hourly profile re-aggregates to the same total.
  double hourly_bits = 0.0;
  const auto profile = meter.hourly_profile();
  for (const auto& rate : profile) {
    hourly_bits += rate.bps() * 3.0 * 3600.0;  // 3 days x 1h per day
  }
  EXPECT_NEAR(hourly_bits, expected, expected * 1e-9);
}

// CachedSet::min always agrees with a brute-force scan under random
// insert/update/erase traffic, including score decreases.
TEST_P(Seeded, CachedSetMinMatchesBruteForce) {
  Rng rng(GetParam());
  cache::CachedSet set;
  std::map<ProgramId, cache::CachedSet::Score> model;

  for (int step = 0; step < 3000; ++step) {
    const ProgramId p{static_cast<std::uint32_t>(rng.uniform_u64(40))};
    const cache::CachedSet::Score score{rng.uniform_int(-50, 50),
                                        rng.uniform_int(0, 1000)};
    switch (rng.uniform_u64(3)) {
      case 0:
        if (!model.contains(p)) {
          set.insert(p, score);
          model.emplace(p, score);
        }
        break;
      case 1:
        set.update(p, score);
        if (model.contains(p)) model[p] = score;
        break;
      default:
        if (model.contains(p)) {
          set.erase(p);
          model.erase(p);
        }
        break;
    }
    // Brute-force min.
    std::optional<std::pair<cache::CachedSet::Score, ProgramId>> expected;
    for (const auto& [program, s] : model) {
      if (!expected || std::pair{s, program} < *expected) {
        expected = {s, program};
      }
    }
    if (expected) {
      ASSERT_EQ(set.min(), expected->second) << "at step " << step;
    } else {
      ASSERT_EQ(set.min(), std::nullopt);
    }
    ASSERT_EQ(set.size(), model.size());
  }
}

// CachedSet::min equals the first entry of an exact ordered set of
// (score, program) under random inserts, erases, rises, falls and ties.
// min() is asked only every `stride` steps, so stale heap entries pile up
// between questions and the heap compacts many times per round.
TEST_P(Seeded, CachedSetMinMatchesOrderedSet) {
  using Score = cache::CachedSet::Score;
  Rng rng(GetParam());
  for (int round = 0; round < 24; ++round) {
    const std::uint64_t universe =
        1 + rng.uniform_u64(rng.bernoulli(0.5) ? 8 : 300);
    const std::uint64_t stride = 1 + rng.uniform_u64(40);
    cache::CachedSet set;
    std::map<std::uint32_t, Score> scores;
    std::set<std::pair<Score, std::uint32_t>> ordered;
    const auto assign = [&](std::uint32_t program, Score score) {
      ordered.erase({scores[program], program});
      scores[program] = score;
      ordered.emplace(score, program);
    };
    // A step of up to 3 in one component; small ranges make ties common.
    const auto nudge = [&](Score score, std::int64_t sign) {
      const std::int64_t by = sign * rng.uniform_int(1, 3);
      if (rng.bernoulli(0.5)) return Score{score.first + by, score.second};
      return Score{score.first, score.second + by};
    };
    for (int step = 0; step < 2000; ++step) {
      const auto repro = [&] {
        return "repro: --gtest_filter='Seeds/Seeded."
               "CachedSetMinMatchesOrderedSet/seed" +
               std::to_string(GetParam()) + "' round=" +
               std::to_string(round) + " step=" + std::to_string(step) +
               " universe=" + std::to_string(universe) +
               " stride=" + std::to_string(stride);
      };
      const auto program =
          static_cast<std::uint32_t>(rng.uniform_u64(universe));
      const ProgramId id{program};
      const std::uint64_t action = rng.uniform_u64(10);
      if (!scores.contains(program)) {
        const Score score{rng.uniform_int(-10, 10), rng.uniform_int(0, 3)};
        if (action < 6) {
          set.insert(id, score);
          assign(program, score);
        } else {
          set.update(id, score);  // absent: no-op
        }
      } else if (action < 2) {
        set.erase(id);
        ordered.erase({scores[program], program});
        scores.erase(program);
      } else {
        Score next = scores[program];
        if (action < 5) {
          next = nudge(next, +1);
        } else if (action < 8) {
          next = nudge(next, -1);
        } else if (action == 8) {
          // Tie: take another cached program's score.
          auto other = ordered.begin();
          std::advance(other, rng.uniform_u64(ordered.size()));
          next = other->first;
        }  // action 9 re-sends the current score
        set.update(id, next);
        assign(program, next);
      }
      ASSERT_EQ(set.size(), ordered.size()) << repro();
      ASSERT_EQ(set.score_of(id),
                scores.contains(program) ? std::optional{scores[program]}
                                         : std::nullopt)
          << repro();
      if (step % stride != 0) continue;
      if (ordered.empty()) {
        ASSERT_EQ(set.min(), std::nullopt) << repro();
      } else {
        ASSERT_EQ(set.min(), ProgramId{ordered.begin()->second}) << repro();
      }
    }
  }
}

// LFU frequency always equals a brute-force count over the sliding window.
TEST_P(Seeded, LfuFrequencyMatchesBruteForce) {
  Rng rng(GetParam());
  const auto history = sim::SimTime::minutes(90);
  cache::AccessHistory recorded;
  cache::LfuStrategy lfu(recorded, history);
  std::vector<std::pair<sim::SimTime, ProgramId>> log;

  sim::SimTime now;
  for (int step = 0; step < 2000; ++step) {
    now += sim::SimTime::seconds(rng.uniform_int(1, 300));
    const ProgramId p{static_cast<std::uint32_t>(rng.uniform_u64(12))};
    test::access(recorded, lfu, p, now);
    log.emplace_back(now, p);

    const ProgramId probe{static_cast<std::uint32_t>(rng.uniform_u64(12))};
    std::int64_t expected = 0;
    for (const auto& [t, program] : log) {
      if (program == probe && t >= now - history) ++expected;
    }
    ASSERT_EQ(lfu.score(probe, now).first, expected) << "at step " << step;
  }
}

// The model's segment sizes: a full segment, or the program's shorter
// remainder, at exactly `bits_per_ms` bits a millisecond.
struct SegmentModel {
  const trace::Catalog& catalog;
  std::int64_t bits_per_ms;

  [[nodiscard]] std::uint32_t segments(std::uint32_t program) const {
    const std::int64_t segment_ms = trace::kSegmentDuration.millis_count();
    return static_cast<std::uint32_t>(
        (catalog.length(ProgramId{program}).millis_count() + segment_ms - 1) /
        segment_ms);
  }
  [[nodiscard]] std::int64_t bits(std::uint32_t program,
                                  std::uint32_t seg) const {
    const std::int64_t segment_ms = trace::kSegmentDuration.millis_count();
    const std::int64_t rest =
        catalog.length(ProgramId{program}).millis_count() - segment_ms * seg;
    return bits_per_ms * std::min(segment_ms, rest);
  }
};

// SegmentStore per-peer accounting equals a brute-force model under random
// store/evict churn; placement always picks a maximal-free eligible peer.
// Sizes are the catalog's: full segments and shorter last ones.
TEST_P(Seeded, SegmentStoreMatchesBruteForce) {
  Rng rng(GetParam());
  constexpr std::uint32_t kPeers = 6;
  constexpr std::uint32_t kPrograms = 15;
  // Wide enough that a program's slot block grows after its first store;
  // draws arrive out of order.
  constexpr std::uint32_t kSegments = 40;
  const auto per_peer = DataSize::megabytes(1000);
  // Up to kSegments segments, the last one 1 ms up to a full segment long.
  // 8 Mb/s: 8,000 bits a millisecond, a full segment 300 MB.
  const std::int64_t segment_ms = trace::kSegmentDuration.millis_count();
  std::vector<trace::ProgramInfo> infos(kPrograms);
  for (auto& info : infos) {
    info.length = sim::SimTime::millis(
        segment_ms * rng.uniform_int(0, kSegments - 1) +
        rng.uniform_int(1, segment_ms));
  }
  const trace::Catalog catalog(std::move(infos));
  const SegmentModel model{catalog, 8'000};
  cache::SegmentStore store(kPeers, per_peer, catalog,
                            DataRate::megabits_per_second(8.0));
  std::vector<std::int64_t> used(kPeers, 0);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::uint32_t>>
      placed;  // (program, seg) -> peers
  const auto model_has_program = [&](std::uint32_t program) {
    for (const auto& [key, peers] : placed) {
      if (key.first == program && !peers.empty()) return true;
    }
    return false;
  };

  for (int step = 0; step < 1500; ++step) {
    const std::uint64_t action = rng.uniform_u64(18);
    if (action < 12) {
      const std::uint32_t program =
          static_cast<std::uint32_t>(rng.uniform_u64(kPrograms));
      const std::uint32_t seg = static_cast<std::uint32_t>(
          rng.uniform_u64(model.segments(program)));
      const std::int64_t bits = model.bits(program, seg);
      const auto& existing = placed[{program, seg}];

      // Brute-force eligibility: max free among peers without this key,
      // ties to the larger id.
      std::int64_t best_free = -1;
      std::uint32_t best_peer = 0;
      for (std::uint32_t peer = 0; peer < kPeers; ++peer) {
        if (std::find(existing.begin(), existing.end(), peer) !=
            existing.end()) {
          continue;
        }
        const std::int64_t free = per_peer.bit_count() - used[peer];
        if (free >= best_free) {
          best_free = free;
          best_peer = peer;
        }
      }
      const bool expect_success = best_free >= bits;

      const auto result = store.store({ProgramId{program}, seg});
      ASSERT_EQ(result.has_value(), expect_success) << "at step " << step;
      if (result) {
        const auto chosen = result->value();
        // Chosen peer had the maximal free space among eligible peers.
        ASSERT_GE(per_peer.bit_count() - used[chosen], bits);
        ASSERT_EQ(per_peer.bit_count() - used[chosen], best_free);
        ASSERT_EQ(chosen, best_peer) << "at step " << step;
        used[chosen] += bits;
        placed[{program, seg}].push_back(chosen);
      }
    } else if (action < 16) {
      const std::uint32_t program =
          static_cast<std::uint32_t>(rng.uniform_u64(kPrograms));
      std::int64_t expect_freed = 0;
      for (auto& [key, peers] : placed) {
        if (key.first != program) continue;
        expect_freed += model.bits(key.first, key.second) *
                        static_cast<std::int64_t>(peers.size());
        peers.clear();
      }
      const DataSize freed = store.evict_program(ProgramId{program});
      ASSERT_EQ(freed.bit_count(), expect_freed);
      // Recompute brute-force usage from scratch via store introspection.
      for (std::uint32_t peer = 0; peer < kPeers; ++peer) {
        used[peer] = store.peer_used(PeerId{peer}).bit_count();
      }
    } else {
      const std::uint32_t peer =
          static_cast<std::uint32_t>(rng.uniform_u64(kPeers));
      std::vector<ProgramId> expect_emptied;
      for (std::uint32_t program = 0; program < kPrograms; ++program) {
        if (model_has_program(program)) {
          expect_emptied.push_back(ProgramId{program});
        }
      }
      std::int64_t expect_freed = 0;
      for (auto& [key, peers] : placed) {
        const auto it = std::find(peers.begin(), peers.end(), peer);
        if (it == peers.end()) continue;
        expect_freed += model.bits(key.first, key.second);
        peers.erase(it);
      }
      std::erase_if(expect_emptied, [&](ProgramId program) {
        return model_has_program(program.value());
      });
      const auto wiped = store.wipe_peer(PeerId{peer});
      ASSERT_EQ(wiped.freed.bit_count(), expect_freed) << "at step " << step;
      ASSERT_EQ(wiped.emptied_programs, expect_emptied) << "at step " << step;
      used[peer] -= expect_freed;
      ASSERT_EQ(used[peer], 0);
    }
    // Model agreement: every key's replicas in insertion order.
    for (std::uint32_t program = 0; program < kPrograms; ++program) {
      for (std::uint32_t seg = 0; seg < kSegments; ++seg) {
        const auto found = placed.find({program, seg});
        const auto located = store.locate({ProgramId{program}, seg});
        const std::size_t expect =
            found == placed.end() ? 0 : found->second.size();
        ASSERT_EQ(located.size(), expect);
        for (std::size_t r = 0; r < expect; ++r) {
          ASSERT_EQ(located[r].value(), found->second[r]);
        }
      }
    }
    // Global invariants.
    DataSize total;
    for (std::uint32_t peer = 0; peer < kPeers; ++peer) {
      ASSERT_LE(store.peer_used(PeerId{peer}), per_peer);
      total += store.peer_used(PeerId{peer});
    }
    ASSERT_EQ(total, store.used());
  }
}

// SegmentStore against a brute-force model where slots spill: a segment
// gets up to 3 replicas, and peer wipes and program evictions interleave
// with the stores.  At 20 Mb/s a full segment is 6e9 bits and last
// segments fall on both sides of 2^32 bits; every size stays exact in
// bits.
TEST_P(Seeded, SegmentStoreSpillsMatchBruteForce) {
  Rng rng(GetParam());
  constexpr std::uint32_t kPeers = 5;
  constexpr std::uint32_t kPrograms = 8;
  constexpr std::uint32_t kSegments = 12;
  constexpr std::int64_t k32Bits = std::int64_t{1} << 32;
  const auto per_peer = DataSize::bits(k32Bits * 6);
  // 20 Mb/s: 20,000 bits a millisecond.  Some last segments are within a
  // millisecond of 2^32 bits (214.748 s or 214.749 s), the rest anywhere.
  const std::int64_t segment_ms = trace::kSegmentDuration.millis_count();
  std::vector<trace::ProgramInfo> infos(kPrograms);
  for (auto& info : infos) {
    const std::int64_t last_ms = rng.bernoulli(0.3)
                                     ? rng.uniform_int(214'748, 214'749)
                                     : rng.uniform_int(1, segment_ms);
    info.length = sim::SimTime::millis(
        segment_ms * rng.uniform_int(0, kSegments - 1) + last_ms);
  }
  const trace::Catalog catalog(std::move(infos));
  const SegmentModel model{catalog, 20'000};
  cache::SegmentStore store(kPeers, per_peer, catalog,
                            DataRate::megabits_per_second(20.0));
  struct Replica {
    std::uint32_t peer;
    std::int64_t bits;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Replica>>
      placed;  // (program, seg) -> replicas in insertion order
  std::vector<std::int64_t> used(kPeers, 0);
  const auto model_has_program = [&](std::uint32_t program) {
    for (const auto& [key, replicas] : placed) {
      if (key.first == program && !replicas.empty()) return true;
    }
    return false;
  };

  for (int step = 0; step < 1500; ++step) {
    const auto repro = [&] {
      return "repro: --gtest_filter='Seeds/Seeded."
             "SegmentStoreSpillsMatchBruteForce/seed" +
             std::to_string(GetParam()) + "' step=" + std::to_string(step);
    };
    const std::uint64_t action = rng.uniform_u64(20);
    const auto program =
        static_cast<std::uint32_t>(rng.uniform_u64(kPrograms));
    if (action < 14) {
      const auto seg = static_cast<std::uint32_t>(
          rng.uniform_u64(model.segments(program)));
      auto& replicas = placed[{program, seg}];
      if (replicas.size() == 3) continue;
      const std::int64_t bits = model.bits(program, seg);
      std::int64_t best_free = -1;
      std::uint32_t best_peer = 0;
      for (std::uint32_t peer = 0; peer < kPeers; ++peer) {
        if (std::any_of(replicas.begin(), replicas.end(),
                        [&](const Replica& r) { return r.peer == peer; })) {
          continue;
        }
        const std::int64_t free = per_peer.bit_count() - used[peer];
        if (free >= best_free) {
          best_free = free;
          best_peer = peer;
        }
      }
      const auto result = store.store({ProgramId{program}, seg});
      ASSERT_EQ(result.has_value(), best_free >= bits) << repro();
      if (result) {
        ASSERT_EQ(result->value(), best_peer) << repro();
        used[best_peer] += bits;
        replicas.push_back({best_peer, bits});
      }
    } else if (action < 17) {
      std::int64_t expect_freed = 0;
      for (auto& [key, replicas] : placed) {
        if (key.first != program) continue;
        for (const Replica& r : replicas) {
          expect_freed += r.bits;
          used[r.peer] -= r.bits;
        }
        replicas.clear();
      }
      ASSERT_EQ(store.evict_program(ProgramId{program}).bit_count(),
                expect_freed)
          << repro();
    } else {
      const auto peer = static_cast<std::uint32_t>(rng.uniform_u64(kPeers));
      std::vector<ProgramId> expect_emptied;
      std::int64_t expect_freed = 0;
      for (std::uint32_t p = 0; p < kPrograms; ++p) {
        if (!model_has_program(p)) continue;
        for (auto& [key, replicas] : placed) {
          if (key.first != p) continue;
          std::erase_if(replicas, [&](const Replica& r) {
            if (r.peer != peer) return false;
            expect_freed += r.bits;
            return true;
          });
        }
        if (!model_has_program(p)) expect_emptied.push_back(ProgramId{p});
      }
      const auto wiped = store.wipe_peer(PeerId{peer});
      ASSERT_EQ(wiped.freed.bit_count(), expect_freed) << repro();
      ASSERT_EQ(wiped.emptied_programs, expect_emptied) << repro();
      ASSERT_EQ(used[peer], expect_freed) << repro();
      used[peer] = 0;
    }
    // Every key's replicas in insertion order, exact usage.
    for (std::uint32_t p = 0; p < kPrograms; ++p) {
      for (std::uint32_t seg = 0; seg < kSegments; ++seg) {
        const auto found = placed.find({p, seg});
        const auto located = store.locate({ProgramId{p}, seg});
        const std::size_t expect =
            found == placed.end() ? 0 : found->second.size();
        ASSERT_EQ(located.size(), expect) << repro();
        for (std::size_t r = 0; r < expect; ++r) {
          ASSERT_EQ(located[r].value(), found->second[r].peer) << repro();
        }
      }
    }
    std::int64_t total = 0;
    for (std::uint32_t peer = 0; peer < kPeers; ++peer) {
      ASSERT_EQ(store.peer_used(PeerId{peer}).bit_count(), used[peer])
          << repro();
      total += used[peer];
    }
    ASSERT_EQ(store.used().bit_count(), total) << repro();
  }
}

// Every registered (scorer x admission) pair, under both admission
// granularities and with and without replicate_on_busy, keeps its
// scorer's cached set and its store in step through random sessions, full
// and partial segment serves (whose fills evict) and peer wipes.  After
// every call: a program with a located segment is cached; under segment
// granularity a cached program has a located segment; under whole-program
// admission the cached programs' full sizes fit the capacity; no peer
// holds more than it contributes; and the store's usage, in total and per
// peer, is the sum of the catalog's nominal sizes of the located replicas
// (programs end in partial segments, so last segments are shorter).
TEST_P(Seeded, CacheCellMembershipHolds) {
  Rng rng(GetParam());
  constexpr std::uint32_t kPeers = 4;
  constexpr std::uint32_t kPrograms = 12;
  constexpr std::uint32_t kMaxSegments = 4;
  constexpr int kEvents = 500;
  const auto segment = core::SystemConfig::segment_duration;

  core::SystemConfig config;
  // Two segments per peer, nine in the neighborhood: fills evict.
  config.per_peer_storage = DataSize::megabytes(700);
  // A couple of concurrent streams fill this much of the coax: the
  // headroom gates refuse some sessions.
  config.admission_policy.headroom_fraction = 0.01;
  std::vector<trace::ProgramInfo> infos(kPrograms);
  for (auto& info : infos) {
    // Whole segments, then a last one of 1 s up to a full segment.
    info.length =
        sim::SimTime::millis(segment.millis_count() *
                             rng.uniform_int(0, kMaxSegments - 1)) +
        sim::SimTime::seconds(rng.uniform_int(1, segment.millis_count() / 1000));
    info.base_weight = 1.0;
  }
  const trace::Catalog catalog(std::move(infos));
  // The nominal slice of a segment: a full segment, or the program's
  // shorter remainder.
  const auto nominal = [&](std::uint32_t program, std::uint32_t seg) {
    return std::min(segment, catalog.length(ProgramId{program}) -
                                 sim::SimTime::millis(segment.millis_count() *
                                                      seg));
  };

  // The script, in strictly increasing time.  Its session starts fill the
  // global board and the oracle's future index before any cell runs.
  enum class Kind { Start, Serve, Fail };
  struct Event {
    Kind kind;
    sim::SimTime t;
    std::uint32_t program = 0;
    std::uint32_t arg = 0;  // viewer (Start), segment (Serve), peer (Fail)
    sim::SimTime length;    // session (Start) or transmission (Serve)
  };
  std::vector<Event> script;
  auto board = std::make_shared<cache::ReplayBoard>(
      kPrograms, config.strategy.lfu_history, config.strategy.global_lag);
  cache::FutureIndex future(kPrograms);
  sim::SimTime t;
  for (int i = 0; i < kEvents; ++i) {
    t += sim::SimTime::seconds(rng.uniform_int(1, 240));
    const auto program = static_cast<std::uint32_t>(rng.uniform_u64(kPrograms));
    const sim::SimTime length = catalog.length(ProgramId{program});
    const std::uint64_t action = rng.uniform_u64(20);
    if (action < 6) {
      script.push_back({Kind::Start, t, program,
                        static_cast<std::uint32_t>(rng.uniform_u64(kPeers)),
                        length});
      board->add(ProgramId{program}, t);
      future.add(ProgramId{program}, t);
    } else if (action < 19) {
      const auto segments = static_cast<std::uint32_t>(
          (length.millis_count() + segment.millis_count() - 1) /
          segment.millis_count());
      const auto seg = static_cast<std::uint32_t>(rng.uniform_u64(segments));
      const auto slice_s = nominal(program, seg).millis_count() / 1000;
      const bool full = slice_s == 1 || rng.bernoulli(0.8);
      script.push_back({Kind::Serve, t, program, seg,
                        sim::SimTime::seconds(
                            full ? slice_s : rng.uniform_int(1, slice_s - 1))});
    } else {
      script.push_back({Kind::Fail, t, 0,
                        static_cast<std::uint32_t>(rng.uniform_u64(kPeers)),
                        sim::SimTime{}});
    }
  }
  board->freeze();
  future.freeze();

  cache::AccessHistory history;
  cache::ReplayView view(*board);
  sim::RateMeter coax(t + sim::SimTime::days(1), config.meter_bucket);
  const core::PolicyContext context{config, catalog, history, &future, &view};
  std::vector<cache::CacheCell> cells;
  std::vector<std::string> labels;
  cells.reserve(100);
  for (const auto& scorer : core::scorer_registry()) {
    if (scorer.kind == core::StrategyKind::None) continue;
    for (const auto& admission : core::admission_registry()) {
      for (const bool whole_program : {true, false}) {
        for (const bool replicate : {false, true}) {
          const cache::CacheCell::Settings settings{
              whole_program, replicate, config.stream_rate,
              config.per_peer_storage};
          cells.emplace_back(
              cache::CacheCell::Policy{scorer.display, admission.display,
                                       scorer.make(context),
                                       admission.make(context)},
              settings, kPeers, &coax, catalog);
          labels.push_back(std::string(scorer.key) + "/" + admission.key +
                           (whole_program ? "/whole" : "/segment") +
                           (replicate ? "/replicate" : ""));
        }
      }
    }
  }
  // admit[c * kPrograms + p]: cell c's decision for p's latest session.
  std::vector<char> admit(cells.size() * kPrograms, 0);

  std::size_t session = 0;
  for (int step = 0; step < kEvents; ++step) {
    const Event& e = script[static_cast<std::size_t>(step)];
    const ProgramId program{e.program};
    const sim::Interval tx{e.t, e.t + e.length};
    if (e.kind == Kind::Start) {
      history.record(program, e.t);
      view.on_session_start(session++, program, e.t);
    } else if (e.kind == Kind::Serve) {
      view.on_boundary(e.t);
      coax.add(tx, config.stream_rate);
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
      cache::CacheCell& cell = cells[c];
      const bool whole_program = labels[c].find("/whole") != std::string::npos;
      switch (e.kind) {
        case Kind::Start:
          admit[c * kPrograms + e.program] = cell.start_session(program, e.t);
          cell.occupy_viewer_slot(PeerId{e.arg}, tx);
          break;
        case Kind::Serve:
          (void)cell.serve_segment({program, e.arg}, tx,
                                   admit[c * kPrograms + e.program] != 0,
                                   e.length == nominal(e.program, e.arg));
          break;
        case Kind::Fail:
          (void)cell.fail_peer(PeerId{e.arg});
          break;
      }
      const auto repro = [&] {
        return "repro: --gtest_filter='Seeds/Seeded."
               "CacheCellMembershipHolds/seed" +
               std::to_string(GetParam()) + "' step=" + std::to_string(step) +
               " cell=" + labels[c];
      };
      const cache::SegmentStore& store = cell.store();
      const cache::EvictionScorer& scorer = *cell.scorer();
      std::size_t cached = 0;
      DataSize cached_bytes;
      DataSize located_bytes;
      std::vector<DataSize> peer_bytes(kPeers);
      for (std::uint32_t p = 0; p < kPrograms; ++p) {
        bool located = false;
        for (std::uint32_t seg = 0; seg < kMaxSegments; ++seg) {
          const auto replicas = store.locate({ProgramId{p}, seg});
          located = located || !replicas.empty();
          for (const PeerId replica : replicas) {
            const DataSize bytes = config.stream_rate.over_seconds(
                nominal(p, seg).seconds_f());
            located_bytes += bytes;
            peer_bytes[replica.value()] += bytes;
          }
        }
        const bool is_cached = scorer.is_cached(ProgramId{p});
        ASSERT_TRUE(is_cached || !located) << "program " << p << " " << repro();
        if (!whole_program) {
          ASSERT_TRUE(located || !is_cached)
              << "program " << p << " " << repro();
        }
        if (is_cached) {
          ++cached;
          cached_bytes += catalog.program_size(ProgramId{p}, config.stream_rate);
        }
      }
      ASSERT_EQ(scorer.cached_count(), cached) << repro();
      if (whole_program) {
        ASSERT_LE(cached_bytes, store.capacity()) << repro();
      }
      ASSERT_EQ(store.used(), located_bytes) << repro();
      for (std::uint32_t peer = 0; peer < kPeers; ++peer) {
        ASSERT_LE(store.peer_used(PeerId{peer}), config.per_peer_storage)
            << repro();
        ASSERT_EQ(store.peer_used(PeerId{peer}), peer_bytes[peer])
            << "peer " << peer << " " << repro();
      }
    }
  }
}

// FutureIndex::count_in equals a scan of the log it was fed: accesses of
// few programs in any order (or already sorted, as the prepass adds them),
// many at equal times, queried at and around access times so both ends of
// (t, t + horizon] land on accesses.  Some programs have no access at all.
TEST_P(Seeded, FutureIndexCountsMatchScan) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const auto programs = static_cast<std::uint32_t>(1 + rng.uniform_u64(12));
    const auto accesses = rng.uniform_u64(300);
    const bool sorted = rng.bernoulli(0.3);
    std::vector<std::pair<std::uint32_t, std::int64_t>> log;
    for (std::uint64_t i = 0; i < accesses; ++i) {
      log.emplace_back(static_cast<std::uint32_t>(rng.uniform_u64(programs)),
                       rng.uniform_int(0, 60));
    }
    if (sorted) {
      std::stable_sort(log.begin(), log.end(), [](const auto& a,
                                                  const auto& b) {
        return a.second < b.second;
      });
    }
    cache::FutureIndex index(programs);
    for (const auto& [program, minute] : log) {
      index.add(ProgramId{program}, sim::SimTime::minutes(minute));
    }
    index.freeze();
    for (int query = 0; query < 200; ++query) {
      const auto program = static_cast<std::uint32_t>(rng.uniform_u64(programs));
      // Times on the access grid, one past either end, and between
      // minutes; horizons of zero, of whole minutes (an end on an access)
      // and of odd milliseconds.
      const std::int64_t t_ms = rng.uniform_int(-1, 61) * 60'000 +
                                (rng.bernoulli(0.2) ? 30'000 : 0);
      const std::int64_t horizon_ms =
          rng.bernoulli(0.1) ? 0
                             : rng.uniform_int(0, 62) * 60'000 +
                                   (rng.bernoulli(0.2) ? 1 : 0);
      std::int64_t expect = 0;
      for (const auto& [p, minute] : log) {
        const std::int64_t ms = minute * 60'000;
        if (p == program && ms > t_ms && ms <= t_ms + horizon_ms) ++expect;
      }
      ASSERT_EQ(index.count_in(ProgramId{program}, sim::SimTime::millis(t_ms),
                               sim::SimTime::millis(horizon_ms)),
                expect)
          << "repro: --gtest_filter='Seeds/Seeded.FutureIndexCountsMatchScan/"
             "seed"
          << GetParam() << "' round=" << round << " program=" << program
          << " t_ms=" << t_ms << " horizon_ms=" << horizon_ms
          << (sorted ? " sorted" : " any-order");
    }
  }
}

// The Oracle ranks its cached set by the future as of its last refresh: a
// random script of accesses, admissions, evictions and wipes drives an
// OracleStrategy the way a cache cell does, against a model that keeps
// each cached program's score as a scan of the future log — taken at the
// cell's last refresh, or at the program's own later access or admission.
// Every victim is the model's minimum (score, then program id); a wipe
// evicts victims until the set is empty, so it checks the whole order.
TEST_P(Seeded, OracleVictimMatchesFutureScan) {
  Rng rng(GetParam());
  constexpr std::uint32_t kPrograms = 24;
  const auto lookahead = sim::SimTime::minutes(rng.uniform_int(30, 600));
  const auto refresh = sim::SimTime::minutes(rng.uniform_int(5, 120));

  enum class Kind { Access, Admit, Evict, Wipe };
  struct Event {
    Kind kind;
    sim::SimTime t;
    std::uint32_t program = 0;
  };
  std::vector<Event> script;
  std::vector<std::pair<std::uint32_t, sim::SimTime>> future;
  sim::SimTime t;
  for (int i = 0; i < 1500; ++i) {
    // Equal times are common: several events at one instant.
    t += sim::SimTime::minutes(rng.uniform_int(0, 15));
    const auto program = static_cast<std::uint32_t>(rng.uniform_u64(kPrograms));
    const std::uint64_t action = rng.uniform_u64(20);
    const Kind kind = action < 10   ? Kind::Access
                      : action < 16 ? Kind::Admit
                      : action < 19 ? Kind::Evict
                                    : Kind::Wipe;
    script.push_back({kind, t, program});
    if (kind == Kind::Access) future.emplace_back(program, t);
  }
  cache::FutureIndex index(kPrograms);
  std::vector<std::pair<std::uint32_t, sim::SimTime>> shuffled = future;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  for (const auto& [program, at] : shuffled) index.add(ProgramId{program}, at);
  index.freeze();

  cache::AccessHistory history;
  cache::OracleStrategy oracle(history, index, lookahead, refresh);
  std::map<std::uint32_t, cache::Score> model;  // cached program -> score
  sim::SimTime next_refresh;
  const auto scan = [&](std::uint32_t program, sim::SimTime now) {
    std::int64_t count = 0;
    for (const auto& [p, at] : future) {
      if (p == program && at > now && at <= now + lookahead) ++count;
    }
    return cache::Score{count, history.recency(ProgramId{program})};
  };
  const auto maybe_refresh = [&](sim::SimTime now) {
    if (now < next_refresh) return;
    next_refresh = now + refresh;
    for (auto& [program, score] : model) score = scan(program, now);
  };
  const auto model_victim = [&]() -> std::optional<ProgramId> {
    const auto best = std::min_element(
        model.begin(), model.end(), [](const auto& a, const auto& b) {
          return std::tie(a.second, a.first) < std::tie(b.second, b.first);
        });
    if (best == model.end()) return std::nullopt;
    return ProgramId{best->first};
  };

  for (std::size_t step = 0; step < script.size(); ++step) {
    const Event& e = script[step];
    const ProgramId program{e.program};
    const auto repro = [&] {
      return "repro: --gtest_filter='Seeds/Seeded."
             "OracleVictimMatchesFutureScan/seed" +
             std::to_string(GetParam()) + "' step=" + std::to_string(step) +
             " lookahead_min=" + std::to_string(lookahead.millis_count() / 60'000) +
             " refresh_min=" + std::to_string(refresh.millis_count() / 60'000);
    };
    const auto check_victim = [&] {
      maybe_refresh(e.t);
      const auto want = model_victim();
      ASSERT_EQ(oracle.victim(e.t), want) << repro();
      if (want) {
        oracle.on_evict(*want);
        model.erase(want->value());
      }
    };
    switch (e.kind) {
      case Kind::Access:
        history.record(program, e.t);
        oracle.on_access(program, e.t);
        maybe_refresh(e.t);
        if (model.contains(e.program)) model[e.program] = scan(e.program, e.t);
        break;
      case Kind::Admit:
        if (model.contains(e.program)) break;
        oracle.on_admit(program, e.t);
        maybe_refresh(e.t);
        model[e.program] = scan(e.program, e.t);
        break;
      case Kind::Evict:
        check_victim();
        break;
      case Kind::Wipe:
        while (!model.empty()) {
          check_victim();
          if (::testing::Test::HasFatalFailure()) return;
        }
        break;
    }
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(oracle.cached_count(), model.size()) << repro();
  }
}

// The flat StreamSlots table grants exactly what the reference simulator's
// prune-and-count peer grants, box by box, under non-decreasing query times:
// serves mixed with viewer playback stacked past the limit, and ends that
// coincide with later query times.
TEST_P(Seeded, StreamSlotsMatchReferencePeer) {
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const auto peers = static_cast<std::uint32_t>(1 + rng.uniform_u64(8));
    const int limit = static_cast<int>(1 + rng.uniform_u64(4));
    hfc::StreamSlots slots(peers, limit);
    std::vector<test::detail::RefPeer> model(peers);
    std::int64_t now = 0;
    for (int step = 0; step < 300; ++step) {
      // Small steps and short spans: many queries share a time, and many
      // ends land exactly on a later query time.
      now += rng.uniform_int(0, 3);
      const auto peer = static_cast<std::uint32_t>(rng.uniform_u64(peers));
      const sim::Interval interval{
          sim::SimTime::seconds(now),
          sim::SimTime::seconds(now + rng.uniform_int(0, 12))};
      auto& ref = model[peer];
      const auto repro = [&] {
        return "repro: --gtest_filter='Seeds/Seeded."
               "StreamSlotsMatchReferencePeer/seed" +
               std::to_string(GetParam()) + "' round=" +
               std::to_string(round) + " step=" + std::to_string(step) +
               " peers=" + std::to_string(peers) +
               " limit=" + std::to_string(limit);
      };
      if (rng.bernoulli(0.5)) {
        const bool want = ref.active(interval.begin) < limit;
        if (want) ref.active_ends.push_back(interval.end);
        ASSERT_EQ(slots.try_acquire(peer, interval), want) << repro();
      } else {
        ref.active(interval.begin);
        ref.active_ends.push_back(interval.end);
        slots.acquire_unchecked(peer, interval);
      }
    }
  }
}

// Ecdf quantile/at stay mutually consistent on random samples.
TEST_P(Seeded, EcdfQuantileAtConsistency) {
  Rng rng(GetParam());
  std::vector<double> samples;
  for (int i = 0; i < 400; ++i) {
    samples.push_back(rng.uniform_double(0.0, 1000.0));
  }
  const analysis::Ecdf ecdf(samples);
  for (double q = 0.05; q < 1.0; q += 0.05) {
    const double v = ecdf.quantile(q);
    // at(v) >= q by definition of the smallest sample with CDF >= q...
    EXPECT_GE(ecdf.at(v) + 1e-12, q);
    // ...and any strictly smaller sample has CDF < q.
    EXPECT_LT(ecdf.at(v - 1e-9), q + 1e-12);
  }
}

// AliasTable empirical frequencies track arbitrary random weights.
TEST_P(Seeded, AliasTableMatchesWeights) {
  Rng rng(GetParam());
  std::vector<double> weights;
  double total = 0.0;
  for (int i = 0; i < 24; ++i) {
    weights.push_back(rng.bernoulli(0.2) ? 0.0 : rng.uniform_double(0.1, 5.0));
    total += weights.back();
  }
  if (total == 0.0) weights[0] = total = 1.0;

  const AliasTable table(weights);
  std::vector<int> counts(weights.size(), 0);
  constexpr int kDraws = 60000;
  Rng sampler(GetParam() ^ 0xABCD);
  for (int i = 0; i < kDraws; ++i) ++counts[table.sample(sampler)];
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expect = weights[i] / total;
    EXPECT_NEAR(static_cast<double>(counts[i]) / kDraws, expect,
                0.015 + expect * 0.1);
    if (weights[i] == 0.0) {
      EXPECT_EQ(counts[i], 0);
    }
  }
}

// The quantile of a sample does not depend on its order: quantile_sorted
// over a sorted copy of a shuffled sample equals the original's.
TEST_P(Seeded, QuantileShuffleInvariant) {
  Rng rng(GetParam());
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal(0.0, 10.0));
  std::vector<double> shuffled = xs;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  std::sort(xs.begin(), xs.end());
  std::sort(shuffled.begin(), shuffled.end());
  for (const double q : {0.0, 0.05, 0.25, 0.5, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(quantile_sorted(xs, q), quantile_sorted(shuffled, q))
        << "repro: seed=" << GetParam() << " q=" << q;
  }
}

}  // namespace
}  // namespace vodcache
