// TierSystem: the cache tiers between the neighborhoods and the origin.
//
// The paper's world is two-level — set-top peers plus one central server —
// and the whole determinism contract (bit-identical reports across thread
// counts, chunk sizes, and streamed-vs-materialized replay) rests on shards
// sharing no mutable state.  A hub cache naively shared by several
// neighborhoods would break that: its contents would depend on the
// interleaving of their misses.  So the tier caches follow the related
// work's "prior storing" model instead: each tier node's resident set is an
// *immutable prefetch plan* built by the orchestrator's prepass chain,
// rotated once per refresh window.  The chain publishes a window's plans
// as soon as the sessions they are packed from have all been read, and a
// shard only asks about windows already published: "was this program
// resident at node X at time t?" is a pure function of published state,
// so tiered runs keep every invariance the two-level runs have.
//
// Plan construction honours the physical constraints a real hub has:
//   * capacity — the resident set's program footprints fit the node;
//   * uplink rotation budget — bytes *new* to a window (not carried over
//     from the previous one) are capped by uplink x refresh;
//   * outages — a level serves nothing while an outage window covers t.
//
// Every prefetch policy ranks a window's programs by demand (ties to the
// lower id); they differ only in which window they plan from: top-popular
// packs window k from window k-1's accesses, the oracle from window k's
// own (the clairvoyant upper bound).  So a top-popular plan is ready when
// its window begins, and an oracle plan one refresh window later.  The kind is the third axis of the
// policy matrix, registered in core::PolicyRegistry next to eviction
// scorers and admission policies.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "hfc/topology.hpp"
#include "trace/catalog.hpp"
#include "util/ids.hpp"

namespace vodcache::core {

// One program's observed demand at a tier node during one refresh window.
struct WindowCount {
  ProgramId program;
  std::uint64_t count = 0;
};

// Programs resident at one node for one refresh window, sorted by id.
using PeriodSet = std::vector<ProgramId>;
using NodePlan = std::vector<PeriodSet>;  // indexed by window
using LevelPlan = std::vector<NodePlan>;  // indexed by node

class TierSystem;

// Streaming accumulator the prepass drives: observes every session start
// once (in stream order), then packs per-node per-window resident sets —
// all at once (finish) or window by window as their input completes
// (publish).
class TierPlanBuilder {
 public:
  // All three references must outlive the builder.  The topology must
  // carry at least one tier and config.prefetch.kind must not be None
  // (the orchestrator skips the build entirely then).
  TierPlanBuilder(const hfc::Topology& topology, const SystemConfig& config,
                  const trace::Catalog& catalog);

  // One session start at `t` (non-decreasing across calls) from
  // `neighborhood`.
  void observe(NeighborhoodId neighborhood, ProgramId program, sim::SimTime t);

  // Packs the plans.  Windows are padded out to cover `horizon` plus one
  // trailing window, so segment boundaries running past the last session
  // still resolve against a built window.
  [[nodiscard]] std::vector<LevelPlan> finish(sim::SimTime horizon);

  // Once every session start before `through` is observed: packs each
  // window whose input is complete into `tiers`' table (sized with
  // TierSystem::size_plans) and publishes it.  Later observations must be
  // at or after `through`; a `through` past the table's last window packs
  // and publishes the rest.
  void publish(sim::SimTime through, TierSystem& tiers);

 private:
  void flush_window();
  // Packs windows [packed_, upto) of `plans`, each window's input already
  // flushed.
  void pack(std::vector<LevelPlan>& plans, std::size_t upto);
  [[nodiscard]] PeriodSet pack_window(const hfc::TierLevelSpec& spec,
                                      std::vector<WindowCount> window,
                                      const PeriodSet& previous) const;

  const hfc::Topology& topology_;
  const SystemConfig& config_;
  const trace::Catalog& catalog_;
  std::int64_t refresh_ms_;
  std::int64_t current_window_ = 0;
  // counts_[level][node]: program ids observed in the current window, one
  // entry per observation, in stream order.  A flat append log beats a
  // hash map here: the prepass touches it once per session per level, and
  // flush_window() recovers the per-program counts with a sort plus
  // run-length pass (same sorted output the map produced).  Cleared — not
  // shrunk — every window, so steady state appends into capacity.
  std::vector<std::vector<std::vector<std::uint32_t>>> counts_;
  // windows_[level][node][window]: flushed observations, sorted by id;
  // emptied once the window it plans is packed.
  std::vector<std::vector<std::vector<std::vector<WindowCount>>>> windows_;
  // Windows packed so far.
  std::size_t packed_ = 0;
};

// The tier state every shard consults: specs (via the topology) plus the
// plans.  Shards query it concurrently without locks.  The plan table is
// sized before any shard reads it, and a window's plans never change once
// published: the prepass chain writes window k while shards read windows
// before it, and publishes it with a release store that a reader's acquire
// load pairs with.
class TierSystem {
 public:
  // `topology` must outlive the system and carry the tier specs.
  TierSystem(const hfc::Topology& topology, sim::SimTime refresh);

  [[nodiscard]] std::size_t level_count() const {
    return topology_->tier_count();
  }
  [[nodiscard]] const hfc::TierLevelSpec& spec(std::size_t level) const {
    return topology_->tier(level);
  }

  // The node ids serving a neighborhood, one per level — precomputed once
  // per shard so the hot path never touches the topology.
  [[nodiscard]] std::vector<std::uint32_t> node_path(NeighborhoodId n) const;

  // Installs finished plans, every window published (absent plans = every
  // node empty, the PrefetchKind::None behaviour).
  void set_plans(std::vector<LevelPlan> plans);

  // Sizes an empty plan table for `horizon` plus one trailing window, none
  // published; TierPlanBuilder::publish fills it window by window.
  void size_plans(sim::SimTime horizon);

  // The lowest level whose node can serve `program` at `t` — resident in
  // the covering refresh window and not in an outage — or nullopt when the
  // miss goes to the origin.  `nodes` is the caller's node_path.  The
  // covering window must be published.
  [[nodiscard]] std::optional<std::size_t> serving_level(
      std::span<const std::uint32_t> nodes, ProgramId program,
      sim::SimTime t) const;

 private:
  friend class TierPlanBuilder;

  const hfc::Topology* topology_;
  std::int64_t refresh_ms_;
  std::vector<LevelPlan> plans_;
  // size_plans()' window count.
  std::size_t table_windows_ = 0;
  // Windows [0, published_) of every node's plan are final.
  std::atomic<std::size_t> published_{0};
};

}  // namespace vodcache::core
