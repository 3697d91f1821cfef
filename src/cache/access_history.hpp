// AccessHistory: one neighborhood's session stream as all its cache cells
// read it (paper section IV-B.2: the index server "keeps a history of all
// events that occur within the last N hours").  Each table is a pure
// function of the session starts, so the shard records every session once,
// before any cell decides, and cells keep only their decisions.  A reader
// asks for its tables when built: recency (every scorer), the LFU window,
// GreedyDual's lifetime counts, second-hit's probation table, sketch-lfu's
// sketch.  Tables keep their high-water capacity: a warm record allocates
// nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cache/sketch.hpp"
#include "sim/time.hpp"
#include "util/flat_map.hpp"
#include "util/ids.hpp"

namespace vodcache::cache {

class AccessHistory {
 public:
  AccessHistory() = default;
  AccessHistory(const AccessHistory&) = delete;  // readers hold its address
  AccessHistory& operator=(const AccessHistory&) = delete;

  // Readers ask before the first record(), all with the shard's one
  // configuration.
  void keep_recency() { recency_on_ = true; }
  void keep_window(sim::SimTime length) { window_length_ = length; }
  void keep_lifetime(std::size_t programs) { lifetime_.resize(programs); }
  void keep_probation(sim::SimTime window) { probation_window_ = window; }
  void keep_sketch(std::uint32_t width, std::uint32_t depth,
                   std::uint64_t halve_period) {
    if (!sketch_) sketch_.emplace(width, depth, halve_period);
  }
  [[nodiscard]] bool empty() const {  // no reader asked for anything
    return !recency_on_ && !window_length_ && lifetime_.empty() &&
           !probation_window_ && !sketch_;
  }

  // A session for `program` started at `t` (non-decreasing).
  void record(ProgramId program, sim::SimTime t);

  // The sequence number of `program`'s latest access; 0 if never accessed
  // (possible when a store is pre-seeded), so such programs rank last.
  [[nodiscard]] std::int64_t recency(ProgramId program) const {
    const std::int64_t* last = last_access_.find(program.value());
    return last == nullptr ? 0 : *last;
  }
  // Accesses no older than the window, as of the latest record().
  [[nodiscard]] std::int64_t window_count(ProgramId program) const {
    const std::int64_t* count = window_counts_.find(program.value());
    return count == nullptr ? 0 : *count;
  }
  // The programs whose window count the latest record() lowered, once per
  // expired access.
  [[nodiscard]] std::span<const ProgramId> expired() const { return expired_; }
  [[nodiscard]] std::int64_t lifetime_count(ProgramId program) const {
    return lifetime_.at(program.value());
  }
  // The access before `program`'s latest, while the probation table holds
  // it.  An entry whose latest access is older than twice the window is
  // swept, which changes no verdict: its previous access could not pass.
  [[nodiscard]] std::optional<sim::SimTime> previous_access(
      ProgramId program) const {
    const LastTwo* entry = probation_.find(program.value());
    if (entry == nullptr || !entry->previous_ms) return std::nullopt;
    return sim::SimTime::millis(*entry->previous_ms);
  }
  // Live probation entries (test hook for the bounded-growth assertion).
  [[nodiscard]] std::size_t probation_size() const { return probation_.size(); }
  [[nodiscard]] const CountMinSketch& sketch() const { return sketch_.value(); }

 private:
  struct Event {
    sim::SimTime time;
    ProgramId program;
  };
  struct LastTwo {
    std::int64_t last_ms;
    std::optional<std::int64_t> previous_ms;
  };

  bool recency_on_ = false;
  // Grows with the programs the neighborhood touches: at a thousand
  // shards a catalog-sized table per shard would dwarf it.
  util::FlatMap64<std::int64_t> last_access_;
  std::int64_t sequence_ = 0;

  std::optional<sim::SimTime> window_length_;
  util::RingBuffer<Event> window_;
  util::FlatMap64<std::int64_t> window_counts_;  // in-window programs only
  std::vector<ProgramId> expired_;

  std::vector<std::int64_t> lifetime_;  // by program id

  std::optional<sim::SimTime> probation_window_;
  util::FlatMap64<LastTwo> probation_;
  std::int64_t next_sweep_ms_ = 0;
  // Keys cannot be erased mid-for_each, so a sweep stages them here.
  std::vector<std::uint64_t> swept_;

  std::optional<CountMinSketch> sketch_;
};

}  // namespace vodcache::cache
