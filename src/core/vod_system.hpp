// VodSystem: the full trace-driven discrete-event simulation
// (paper section V-B).
//
// "A discrete event simulation is dictated by each download event from the
// trace data.  When an event occurs, the user who initiated the event
// locates the specified program in the simulated topology.  This program
// will either be cached within the neighborhood by one of the peers, or it
// will be housed on a central server.  In either case, the download
// consumes neighborhood bandwidth, and in the latter case, it also consumes
// server bandwidth."
//
// Each session of length L plays ceil(L / 300 s) consecutive segments; each
// segment transmission runs at the 8.06 Mb/s playback rate for
// min(300 s, remaining).  Session starts come straight from the (sorted)
// trace; segment boundaries are generated in deterministic batches.
//
// The engine itself is sharded by neighborhood (see NeighborhoodShard and
// ShardedSimulation): VodSystem is the stable facade.  With the default
// config.threads == 1 the job graph runs inline on the calling thread, and
// any higher thread count produces a bit-identical report, just sooner.
#pragma once

#include "core/config.hpp"
#include "core/report.hpp"
#include "core/sharded_simulation.hpp"
#include "hfc/topology.hpp"
#include "trace/session_source.hpp"
#include "trace/trace.hpp"

namespace vodcache::core {

class VodSystem {
 public:
  // The trace must outlive the system.
  VodSystem(const trace::Trace& trace, SystemConfig config)
      : simulation_(trace, config) {}

  // Streaming form: replays the workload directly off a lazy session
  // source (generator, CSV file, scaling adaptor) without materializing
  // it.  Bit-identical to running the materialized trace.  The source must
  // outlive the system.
  VodSystem(const trace::SessionSource& source, SystemConfig config)
      : simulation_(source, config) {}

  VodSystem(const VodSystem&) = delete;
  VodSystem& operator=(const VodSystem&) = delete;

  // Replays the whole trace and produces the report.  Single-shot.
  [[nodiscard]] SimulationReport run() { return simulation_.run(); }

  [[nodiscard]] const hfc::Topology& topology() const {
    return simulation_.topology();
  }
  [[nodiscard]] const SystemConfig& config() const {
    return simulation_.config();
  }
  // Work-stealing scheduler observability for the last run().  Deliberately
  // outside SimulationReport: the report is byte-identical across thread
  // counts, these numbers are not.
  [[nodiscard]] const ExecutorStats& executor_stats() const {
    return simulation_.executor_stats();
  }

 private:
  ShardedSimulation simulation_;
};

}  // namespace vodcache::core
