// PolicyRegistry: the single source of truth for cache policies.
//
// Every eviction scorer and admission policy the system can run is one
// entry here: its enum selector, its CLI spelling, its report spelling, a
// one-line summary, and the factory that builds it from a run's context.
// config.cpp's to_string(), the CLI's parser and usage text, the benches'
// sweep lists, and the shards' instantiation all read this table — so a
// policy added here exists everywhere at once, and none of those surfaces
// can drift from each other (pinned by tests/policy_registry_test.cpp
// round-trips).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "cache/access_history.hpp"
#include "cache/admission.hpp"
#include "cache/future_index.hpp"
#include "cache/popularity_board.hpp"
#include "cache/strategy.hpp"
#include "core/config.hpp"
#include "trace/catalog.hpp"

namespace vodcache::core {

// Everything a policy factory may need.  The access history, future index
// and replay view are shard-local state, owned by the caller; they must
// outlive the policy.
struct PolicyContext {
  const SystemConfig& config;
  const trace::Catalog& catalog;
  cache::AccessHistory& history;
  const cache::FutureIndex* future = nullptr;  // Oracle
  const cache::ReplayView* view = nullptr;  // GlobalLFU
};

struct ScorerEntry {
  StrategyKind kind;
  // CLI spelling (what --strategy parses).
  const char* key;
  // Report spelling (what to_string() and the JSON emit).
  const char* display;
  // One-liner for --list-strategies.
  const char* summary;
  // Null only for StrategyKind::None: no cache, so no cell to build.
  std::unique_ptr<cache::EvictionScorer> (*make)(const PolicyContext&);
};

struct AdmissionEntry {
  AdmissionKind kind;
  const char* key;
  const char* display;
  const char* summary;
  std::unique_ptr<cache::AdmissionPolicy> (*make)(const PolicyContext&);
};

// The tier caches' prior-storing policy (core/tier_system.hpp) — the third
// policy axis.  Only consulted when SystemConfig::tiers is non-empty; the
// plan builder reads the kind itself, so there is no factory.
struct PrefetchEntry {
  PrefetchKind kind;
  const char* key;
  const char* display;
  const char* summary;
};

[[nodiscard]] std::span<const ScorerEntry> scorer_registry();
[[nodiscard]] std::span<const AdmissionEntry> admission_registry();
[[nodiscard]] std::span<const PrefetchEntry> prefetch_registry();

// Lookup by CLI key; nullptr when unknown.
[[nodiscard]] const ScorerEntry* find_scorer(std::string_view key);
[[nodiscard]] const AdmissionEntry* find_admission(std::string_view key);
[[nodiscard]] const PrefetchEntry* find_prefetch(std::string_view key);

// Lookup by enum; every enum value has exactly one entry.
[[nodiscard]] const ScorerEntry& scorer_entry(StrategyKind kind);
[[nodiscard]] const AdmissionEntry& admission_entry(AdmissionKind kind);
[[nodiscard]] const PrefetchEntry& prefetch_entry(PrefetchKind kind);

// "none|lru|lfu|..." — for usage strings, derived so they cannot drift.
[[nodiscard]] std::string scorer_keys();
[[nodiscard]] std::string admission_keys();
[[nodiscard]] std::string prefetch_keys();

}  // namespace vodcache::core
