// Eviction half of the cache policy engine (paper section IV-B.2 and VI-A).
//
// The index server composes two independent policies: an EvictionScorer —
// this file — ranking what stays in the cache, and an AdmissionPolicy
// (cache/admission.hpp) deciding whether a missed program may enter at all.
// The popularity signal (one access per *session*, matching the paper's
// use of "accesses") is the neighborhood's AccessHistory.  The index
// server consults the scorer for three things: re-ranking its cached set
// after an access, scoring a program's retention value, and nominating
// the cheapest cached program to evict.  The segment store performs the
// actual evictions and reports admissions back, so a scorer always knows
// the current cached set.
//
// Scores are ordered pairs: bigger means more valuable.  LFU's "ties are
// resolved using an LRU strategy" falls out of the pair comparison
// (primary = frequency, secondary = recency sequence number).  Every scorer
// breaks ties that way, reading recency() from the history.  Each
// concrete scorer adds only its own primary signal.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "cache/access_history.hpp"
#include "cache/victim_index.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"

namespace vodcache::cache {

using Score = std::pair<std::int64_t, std::int64_t>;

class EvictionScorer {
 public:
  virtual ~EvictionScorer() = default;

  // `history` must outlive the scorer.
  explicit EvictionScorer(AccessHistory& history) : history_(history) {
    history.keep_recency();
  }
  EvictionScorer(const EvictionScorer&) = delete;
  EvictionScorer& operator=(const EvictionScorer&) = delete;

  // A session for `program` started at `t` in this neighborhood, and the
  // history has recorded it: re-rank what that access moved.
  virtual void on_access(ProgramId program, sim::SimTime t) {
    cached_.update(program, score(program, t));
  }

  // Current retention value of `program` (cached or candidate).
  [[nodiscard]] virtual Score score(ProgramId program, sim::SimTime t) = 0;

  // The cached program with the lowest score, if any program is cached.
  [[nodiscard]] std::optional<ProgramId> victim(sim::SimTime t) {
    refresh(t);
    return cached_.min();
  }

  // Store feedback: `program` gained its first stored segment / lost all.
  virtual void on_admit(ProgramId program, sim::SimTime t) {
    refresh(t);
    cached_.insert(program, score(program, t));
  }
  virtual void on_evict(ProgramId program) { cached_.erase(program); }

  [[nodiscard]] bool is_cached(ProgramId program) const {
    return cached_.contains(program);
  }
  [[nodiscard]] std::size_t cached_count() const { return cached_.size(); }

 protected:
  [[nodiscard]] CachedSet& cached() { return cached_; }
  [[nodiscard]] const CachedSet& cached() const { return cached_; }
  [[nodiscard]] const AccessHistory& history() const { return history_; }
  [[nodiscard]] std::int64_t recency(ProgramId program) const {
    return history_.recency(program);
  }

  // Hook for scorers that refresh lazily (oracle, global LFU) before the
  // cached-set ordering is consulted.
  virtual void refresh(sim::SimTime /*t*/) {}

 private:
  const AccessHistory& history_;
  CachedSet cached_;
};

}  // namespace vodcache::cache
