// ShardedSimulation: demultiplexes a session stream by neighborhood, runs
// one NeighborhoodShard per neighborhood, and merges the per-shard results
// into one SimulationReport.
//
// The workload arrives as a `trace::SessionSource` — a pull-based stream —
// so the whole horizon is never materialized: the demux pulls one time
// chunk (`SystemConfig::stream_chunk`) of sessions into per-neighborhood
// batches, the shards replay that chunk's batches, and the memory
// high-water mark is a handful of chunks of sessions plus the shards' own
// state.  A materialized `Trace` is itself a source, so both paths share
// this code and produce identical bytes.
//
// The failure-wave flush time rides on that same pass: the demux folds
// every session into it.  Whole-trace products — GlobalLFU's ReplayBoard,
// the oracle's per-neighborhood FutureIndex and tier prefetch plans — need
// a *prepass*: a chain of jobs, one per epoch of the chunk grid, that
// reads the source once more beside the demux and seals each product's
// finished part at the end of its epoch.  A feed waits only for the epoch
// that seals what it reads: the board and top-popular plans need nothing
// past the chunk's end, oracle plans one refresh window past it, and the
// FutureIndex the whole trace, so a run that reads it has a one-job
// prepass.  Every other config reads the workload exactly once.
//
// The run is decomposed into an explicit task DAG — demux chunks, the
// optional prepass chain, per-(shard x chunk) feed tasks, per-shard
// finish, and the fixed-order merge sink — and handed to the
// work-stealing JobExecutor, so a hot shard's chunks pipeline across
// workers and the second read overlaps the replay.  With one worker
// (threads == 1) the executor runs the same graph inline on the calling
// thread.
// See ARCHITECTURE.md, "The job graph", for the node kinds and edges.
//
// Determinism contract: every shard's computation depends only on
// shared inputs that are immutable once it may read them (source,
// config, topology partition, the sealed pieces of the popularity
// timeline, published tier plans) and its own state; chunk boundaries are invisible
// to each shard's event order (see NeighborhoodShard::feed); per-shard
// state is touched by at most one task at a time (each shard's feeds form
// a dependency chain); and the merge reduces shards in neighborhood-index
// order.  A sealed product answers exactly as the finished one would, so
// the report is bit-identical for every thread count, every chunk size
// and every epoch grid — all purely wall-clock/memory knobs.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cache/future_index.hpp"
#include "cache/popularity_board.hpp"
#include "core/config.hpp"
#include "core/job_executor.hpp"
#include "core/media_server.hpp"
#include "core/neighborhood_shard.hpp"
#include "core/report.hpp"
#include "core/tier_system.hpp"
#include "hfc/topology.hpp"
#include "trace/trace.hpp"

namespace vodcache::core {

class ShardedSimulation {
 public:
  // The source (a Trace or any streaming source) must outlive the
  // simulation.
  ShardedSimulation(const trace::SessionSource& source, SystemConfig config);

  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  // Replays the whole workload (config.threads workers) and produces the
  // report.  Single-shot.
  [[nodiscard]] SimulationReport run();

  [[nodiscard]] const hfc::Topology& topology() const { return topology_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

  // Scheduling observability for the last run(), at every thread count.
  // Never part of the SimulationReport — the report is pinned
  // byte-identical across thread counts, and these numbers are exactly the
  // nondeterministic part.
  [[nodiscard]] const ExecutorStats& executor_stats() const {
    return executor_stats_;
  }

 private:
  // Which shared products this config needs.  The demux builds the
  // failure flush; the prepass chain the whole-trace ones (board, future,
  // tiers), and it runs only when one of those is needed.
  struct Needs {
    bool board = false;   // GlobalLFU popularity timeline
    bool future = false;  // Oracle clairvoyance
    bool flush = false;   // failure waves: last-event flush time
    bool tiers = false;   // tier prefetch plans
    sim::SimTime lookahead;  // the longest a needed product has
  };
  [[nodiscard]] Needs needs() const;

  // Allocate the (empty) shared products the shards point at, the tier
  // plan table sized; the graph's demux and prepass jobs fill them.
  void allocate_products(const Needs& need);
  void build_shards();
  // Build the demux/prepass/feed/finish/merge DAG and run it on the
  // work-stealing executor.  Merges into `media` (the sink node).
  void run_graph(const Needs& need, MediaServer& media);
  [[nodiscard]] SimulationReport build_report(const MediaServer& media) const;

  const trace::SessionSource* source_;
  SystemConfig config_;
  hfc::Topology topology_;
  // GlobalLFU only: the popularity timeline all shards read.  Owned
  // mutably here so the graph's prepass chain can fill and seal it while
  // the shards (which hold const views) read its sealed pieces.
  std::shared_ptr<cache::ReplayBoard> board_;
  // Tiered topologies only: the tier specs plus the prefetch plans the
  // prepass chain publishes window by window, read concurrently by every
  // shard.
  std::unique_ptr<TierSystem> tiers_;
  // Oracle only: per-neighborhood clairvoyance.  Shards hold pointers into
  // this vector (null when it is empty), so it lives as long as they do.
  std::vector<cache::FutureIndex> future_;
  // Failure waves only: time of the last event anywhere in the system.
  sim::SimTime failure_flush_ = sim::SimTime::millis(-1);
  std::vector<std::unique_ptr<NeighborhoodShard>> shards_;
  ExecutorStats executor_stats_;
  bool ran_ = false;
};

}  // namespace vodcache::core
