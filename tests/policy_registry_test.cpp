// The PolicyRegistry is the single source of truth for policy names: the
// CLI parser, to_string(), the report JSON, and the shard factories all
// read it.  These tests pin the properties that make that safe — unique
// keys, total enum coverage, and parse -> to_string -> parse round-trips
// over every registered name.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/policy_registry.hpp"
#include "test_support.hpp"

namespace vodcache::core {
namespace {

TEST(PolicyRegistry, ScorerKeysAndDisplaysAreUnique) {
  std::set<std::string> keys, displays;
  for (const auto& entry : scorer_registry()) {
    EXPECT_TRUE(keys.insert(entry.key).second) << entry.key;
    EXPECT_TRUE(displays.insert(entry.display).second) << entry.display;
  }
}

TEST(PolicyRegistry, AdmissionKeysAndDisplaysAreUnique) {
  std::set<std::string> keys, displays;
  for (const auto& entry : admission_registry()) {
    EXPECT_TRUE(keys.insert(entry.key).second) << entry.key;
    EXPECT_TRUE(displays.insert(entry.display).second) << entry.display;
  }
}

// parse(key) -> kind -> entry -> key must close the loop for every
// registered name, so a CLI spelling always reaches the policy it names
// and the usage string can never advertise something unparseable.
TEST(PolicyRegistry, ScorerRoundTripOverEveryRegisteredName) {
  for (const auto& entry : scorer_registry()) {
    const auto* parsed = find_scorer(entry.key);
    ASSERT_NE(parsed, nullptr) << entry.key;
    EXPECT_EQ(parsed->kind, entry.kind);
    EXPECT_STREQ(scorer_entry(parsed->kind).key, entry.key);
    EXPECT_STREQ(to_string(entry.kind), entry.display);
  }
}

TEST(PolicyRegistry, AdmissionRoundTripOverEveryRegisteredName) {
  for (const auto& entry : admission_registry()) {
    const auto* parsed = find_admission(entry.key);
    ASSERT_NE(parsed, nullptr) << entry.key;
    EXPECT_EQ(parsed->kind, entry.kind);
    EXPECT_STREQ(admission_entry(parsed->kind).key, entry.key);
    EXPECT_STREQ(to_string(entry.kind), entry.display);
  }
}

TEST(PolicyRegistry, UnknownNamesAreRejected) {
  EXPECT_EQ(find_scorer("mru"), nullptr);
  EXPECT_EQ(find_scorer("LRU"), nullptr);  // keys are the CLI spelling
  EXPECT_EQ(find_scorer(""), nullptr);
  EXPECT_EQ(find_admission("never"), nullptr);
  EXPECT_EQ(find_admission("Always"), nullptr);
}

TEST(PolicyRegistry, KeyListsMatchTheRegistries) {
  EXPECT_EQ(scorer_keys(), "none|lru|lfu|oracle|global|greedydual");
  EXPECT_EQ(admission_keys(),
            "always|second-hit|coax-headroom|sketch-lfu|adaptive-headroom");
}

// Every scorer factory builds from a plain context; None, which is no
// cache and so no cell, is the only row without a factory.
TEST(PolicyRegistry, FactoriesProduceTheNamedScorer) {
  const auto catalog = test::uniform_catalog(4, 30);
  SystemConfig config;
  cache::FutureIndex future(catalog.size());
  future.freeze();
  cache::ReplayBoard board(catalog.size(), sim::SimTime::hours(1),
                          sim::SimTime{});
  board.freeze();
  cache::ReplayView view(board);
  cache::AccessHistory history;
  const PolicyContext context{config, catalog, history, &future, &view};

  for (const auto& entry : scorer_registry()) {
    if (entry.kind == StrategyKind::None) {
      EXPECT_EQ(entry.make, nullptr);
      continue;
    }
    ASSERT_NE(entry.make, nullptr) << entry.key;
    EXPECT_NE(entry.make(context), nullptr) << entry.key;
  }
}

TEST(PolicyRegistry, FactoriesProduceTheNamedAdmissionPolicy) {
  SystemConfig config;
  const auto catalog = test::uniform_catalog(4, 30);
  cache::AccessHistory history;
  const PolicyContext context{config, catalog, history};
  for (const auto& entry : admission_registry()) {
    const auto policy = entry.make(context);
    if (entry.kind == AdmissionKind::Always) {
      // Always-admit is the index server's null fast path — the
      // pre-refactor code path itself, not a policy object.
      EXPECT_EQ(policy, nullptr);
      continue;
    }
    EXPECT_NE(policy, nullptr) << entry.key;
  }
}

}  // namespace
}  // namespace vodcache::core
