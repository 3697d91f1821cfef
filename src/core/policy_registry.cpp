#include "core/policy_registry.hpp"

#include "cache/global_lfu.hpp"
#include "cache/greedy_dual.hpp"
#include "cache/lfu.hpp"
#include "cache/lru.hpp"
#include "cache/oracle.hpp"
#include "util/assert.hpp"

namespace vodcache::core {

namespace {

std::unique_ptr<cache::EvictionScorer> make_lru(const PolicyContext& ctx) {
  return std::make_unique<cache::LruStrategy>(ctx.history);
}

std::unique_ptr<cache::EvictionScorer> make_lfu(const PolicyContext& ctx) {
  return std::make_unique<cache::LfuStrategy>(ctx.history,
                                              ctx.config.strategy.lfu_history);
}

// Oracle: how far ahead the impossible strategy looks (paper: 3 days) and
// how often it re-ranks the cached set.
constexpr sim::SimTime kOracleLookahead = sim::SimTime::days(3);
constexpr sim::SimTime kOracleRefresh = sim::SimTime::hours(1);

std::unique_ptr<cache::EvictionScorer> make_oracle(const PolicyContext& ctx) {
  VODCACHE_EXPECTS(ctx.future != nullptr);
  return std::make_unique<cache::OracleStrategy>(
      ctx.history, *ctx.future, kOracleLookahead, kOracleRefresh);
}

std::unique_ptr<cache::EvictionScorer> make_global_lfu(
    const PolicyContext& ctx) {
  VODCACHE_EXPECTS(ctx.view != nullptr);
  return std::make_unique<cache::GlobalLfuStrategy>(ctx.history, *ctx.view);
}

std::unique_ptr<cache::EvictionScorer> make_greedy_dual(
    const PolicyContext& ctx) {
  return std::make_unique<cache::GreedyDualScorer>(ctx.history, ctx.catalog);
}

constexpr ScorerEntry kScorers[] = {
    {StrategyKind::None, "none", "None",
     "no caching; every request hits the central server", nullptr},
    {StrategyKind::Lru, "lru", "LRU",
     "evict the least recently used program", make_lru},
    {StrategyKind::Lfu, "lfu", "LFU",
     "evict the least frequently used program (N-hour history)", make_lfu},
    {StrategyKind::Oracle, "oracle", "Oracle",
     "clairvoyant: keep what the next days will watch (upper bound)",
     make_oracle},
    {StrategyKind::GlobalLfu, "global", "GlobalLFU",
     "LFU ranked by system-wide popularity, optionally lagged",
     make_global_lfu},
    {StrategyKind::GreedyDual, "greedydual", "GreedyDual",
     "length-aware GreedyDual: value per byte with inflation aging",
     make_greedy_dual},
};

std::unique_ptr<cache::AdmissionPolicy> make_always(const PolicyContext&) {
  // Deliberately no policy object: the index server's null-admission fast
  // path *is* always-admit — the pre-refactor code path, with no virtual
  // call and no rate-meter query per session.  That makes the
  // byte-identity argument structural.
  return nullptr;
}

std::unique_ptr<cache::AdmissionPolicy> make_second_hit(
    const PolicyContext& ctx) {
  return std::make_unique<cache::SecondHitPolicy>(
      ctx.history, ctx.config.admission_policy.probation_window);
}

std::unique_ptr<cache::AdmissionPolicy> make_coax_headroom(
    const PolicyContext& ctx) {
  return std::make_unique<cache::CoaxHeadroomPolicy>(
      ctx.config.coax, ctx.config.admission_policy.headroom_fraction);
}

// SketchLfu: count-min sketch geometry, the halving (decay) period in
// recorded accesses, and the estimate a program needs to be admitted.
// The short halving period makes the sketch a *sliding-window* frequency
// estimate: a flash crowd blasts past the threshold within seconds, while
// a program whose accesses trickle in slower than the decay never
// accumulates enough — a sharper filter than second-hit's fixed probation
// window (bench_scenarios gates on exactly that, under LRU eviction, where
// churn protection actually pays).
constexpr std::uint32_t kSketchWidth = 1024;
constexpr std::uint32_t kSketchDepth = 4;
constexpr std::uint64_t kSketchHalvePeriod = 256;
constexpr std::uint32_t kSketchMinEstimate = 2;

std::unique_ptr<cache::AdmissionPolicy> make_sketch_lfu(
    const PolicyContext& ctx) {
  return std::make_unique<cache::SketchLFUPolicy>(
      ctx.history, kSketchWidth, kSketchDepth, kSketchHalvePeriod,
      kSketchMinEstimate);
}

// AdaptiveHeadroom: hill-climb rotation window and per-window step.
constexpr sim::SimTime kAdaptWindow = sim::SimTime::hours(6);
constexpr double kAdaptStep = 0.05;

std::unique_ptr<cache::AdmissionPolicy> make_adaptive_headroom(
    const PolicyContext& ctx) {
  return std::make_unique<cache::AdaptiveHeadroomPolicy>(
      ctx.config.coax, ctx.config.admission_policy.headroom_fraction,
      kAdaptWindow, kAdaptStep);
}

constexpr AdmissionEntry kAdmissions[] = {
    {AdmissionKind::Always, "always", "always",
     "every miss may enter the cache (the paper's behaviour)", make_always},
    {AdmissionKind::SecondHit, "second-hit", "second-hit",
     "probationary: admit only on the second access within a window",
     make_second_hit},
    {AdmissionKind::CoaxHeadroom, "coax-headroom", "coax-headroom",
     "refuse admission while the neighborhood coax is near its cap",
     make_coax_headroom},
    {AdmissionKind::SketchLfu, "sketch-lfu", "sketch-lfu",
     "TinyLFU: admit when the count-min-sketch estimate clears a threshold",
     make_sketch_lfu},
    {AdmissionKind::AdaptiveHeadroom, "adaptive-headroom", "adaptive-headroom",
     "coax-headroom whose fraction hill-climbs against the live hit rate",
     make_adaptive_headroom},
};

constexpr PrefetchEntry kPrefetches[] = {
    {PrefetchKind::None, "none", "none",
     "tier nodes store nothing; every neighborhood miss rides to the origin"},
    {PrefetchKind::TopPopular, "top-popular", "top-popular",
     "store each node's most-accessed programs of the previous refresh window"},
    {PrefetchKind::Oracle, "oracle", "oracle",
     "clairvoyant: plan each window from its own accesses (upper bound)"},
};

template <typename Entry>
std::string join_keys(std::span<const Entry> entries) {
  std::string keys;
  for (const auto& entry : entries) {
    if (!keys.empty()) keys += '|';
    keys += entry.key;
  }
  return keys;
}

}  // namespace

std::span<const ScorerEntry> scorer_registry() { return kScorers; }

std::span<const AdmissionEntry> admission_registry() { return kAdmissions; }

std::span<const PrefetchEntry> prefetch_registry() { return kPrefetches; }

const ScorerEntry* find_scorer(std::string_view key) {
  for (const auto& entry : kScorers) {
    if (key == entry.key) return &entry;
  }
  return nullptr;
}

const AdmissionEntry* find_admission(std::string_view key) {
  for (const auto& entry : kAdmissions) {
    if (key == entry.key) return &entry;
  }
  return nullptr;
}

const PrefetchEntry* find_prefetch(std::string_view key) {
  for (const auto& entry : kPrefetches) {
    if (key == entry.key) return &entry;
  }
  return nullptr;
}

const ScorerEntry& scorer_entry(StrategyKind kind) {
  for (const auto& entry : kScorers) {
    if (entry.kind == kind) return entry;
  }
  VODCACHE_ASSERT(false);
  return kScorers[0];
}

const AdmissionEntry& admission_entry(AdmissionKind kind) {
  for (const auto& entry : kAdmissions) {
    if (entry.kind == kind) return entry;
  }
  VODCACHE_ASSERT(false);
  return kAdmissions[0];
}

const PrefetchEntry& prefetch_entry(PrefetchKind kind) {
  for (const auto& entry : kPrefetches) {
    if (entry.kind == kind) return entry;
  }
  VODCACHE_ASSERT(false);
  return kPrefetches[0];
}

std::string scorer_keys() {
  return join_keys(std::span<const ScorerEntry>(kScorers));
}

std::string admission_keys() {
  return join_keys(std::span<const AdmissionEntry>(kAdmissions));
}

std::string prefetch_keys() {
  return join_keys(std::span<const PrefetchEntry>(kPrefetches));
}

}  // namespace vodcache::core
