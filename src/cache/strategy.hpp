// Eviction half of the cache policy engine (paper section IV-B.2 and VI-A).
//
// The index server composes two independent policies: an EvictionScorer —
// this file — ranking what stays in the cache, and an AdmissionPolicy
// (cache/admission.hpp) deciding whether a missed program may enter at all.
// The index server consults the scorer for three things: recording the
// popularity signal (one access per *session*, matching the paper's use of
// "accesses"), scoring a program's retention value, and nominating the
// cheapest cached program to evict.  The segment store performs the actual
// evictions and reports admissions back, so a scorer always knows the
// current cached set.
//
// Scores are ordered pairs: bigger means more valuable.  LFU's "ties are
// resolved using an LRU strategy" falls out of the pair comparison
// (primary = frequency, secondary = recency sequence number).  Every scorer
// breaks ties that way, so the base owns the one recency table: a scorer's
// record_access() calls touch(), and its score() reads recency().  Each
// concrete scorer adds only its own primary signal.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "cache/victim_index.hpp"
#include "sim/time.hpp"
#include "util/flat_map.hpp"
#include "util/ids.hpp"

namespace vodcache::cache {

using Score = std::pair<std::int64_t, std::int64_t>;

class EvictionScorer {
 public:
  virtual ~EvictionScorer() = default;

  EvictionScorer() = default;
  EvictionScorer(const EvictionScorer&) = delete;
  EvictionScorer& operator=(const EvictionScorer&) = delete;

  // A session for `program` started at `t` in this neighborhood.
  virtual void record_access(ProgramId program, sim::SimTime t) = 0;

  // Current retention value of `program` (cached or candidate).
  [[nodiscard]] virtual Score score(ProgramId program, sim::SimTime t) = 0;

  // The cached program with the lowest score, if any program is cached.
  [[nodiscard]] std::optional<ProgramId> victim(sim::SimTime t);

  // Store feedback: `program` gained its first stored segment / lost all.
  void on_admit(ProgramId program, sim::SimTime t);
  virtual void on_evict(ProgramId program) { cached_.erase(program); }

  [[nodiscard]] bool is_cached(ProgramId program) const {
    return cached_.contains(program);
  }
  [[nodiscard]] std::size_t cached_count() const { return cached_.size(); }

 protected:
  [[nodiscard]] CachedSet& cached() { return cached_; }
  [[nodiscard]] const CachedSet& cached() const { return cached_; }

  // Stamps `program` with the next access sequence number and returns it.
  std::int64_t touch(ProgramId program) {
    std::int64_t* last = last_touch_.find(program.value());
    if (last == nullptr) last = &last_touch_.insert(program.value(), 0);
    return *last = ++sequence_;
  }
  // The sequence number of `program`'s latest touch(); 0 if never touched
  // (possible when a store is pre-seeded), so such programs rank last.
  [[nodiscard]] std::int64_t recency(ProgramId program) const {
    const std::int64_t* last = last_touch_.find(program.value());
    return last == nullptr ? 0 : *last;
  }

  // Hook for scorers that refresh lazily (oracle, global LFU) before the
  // cached-set ordering is consulted.
  virtual void refresh(sim::SimTime /*t*/) {}

 private:
  CachedSet cached_;
  // Grows with the programs this neighborhood actually touches: at a
  // thousand shards a catalog-sized table per scorer would dwarf it.
  util::FlatMap64<std::int64_t> last_touch_;
  std::int64_t sequence_ = 0;
};

}  // namespace vodcache::cache
