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
// trace; each neighborhood queues its segment boundaries in one FIFO.
//
// The engine itself is sharded by neighborhood (see NeighborhoodShard and
// ShardedSimulation): VodSystem is the stable facade name for it.  With
// the default config.threads == 1 the job graph runs inline on the calling
// thread, and any higher thread count produces a bit-identical report,
// just sooner.
#pragma once

#include "core/sharded_simulation.hpp"

namespace vodcache::core {

using VodSystem = ShardedSimulation;

}  // namespace vodcache::core
