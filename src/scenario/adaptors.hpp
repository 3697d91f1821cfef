// Scenario stream adaptors: adversarial workload shapes as single-pass
// trace::SessionSource wrappers.
//
// All three adaptors are trace::RemapSource subclasses, like catalog
// scaling (trace/scaler.hpp): each one only says how to rewrite a single
// record with the stream's RNG, and the base class owns the stream that
// pulls, rewrites and forwards.  Start times are never touched (so no
// reorder buffer is needed and the sorted contract is preserved), and the
// RNG is drawn in input order — a deterministic function of the input
// stream.  Every open() therefore replays the identical sequence, draining
// equals the materialized twin byte for byte, and the simulation report
// stays bit-identical across thread counts and streamed-vs-materialized
// (pinned in tests/scenario_test.cpp, which also pins each adaptor's
// drained stream to a fixed digest).
//
// Program remaps always clamp the session duration to the new program's
// length and only ever target programs already introduced at the session's
// start, so the transformed stream still satisfies every Trace validation
// invariant.
//
// The input source must outlive each adaptor and its streams.
#pragma once

#include <cstdint>
#include <vector>

#include "hfc/topology.hpp"
#include "scenario/scenario.hpp"
#include "trace/session_source.hpp"

namespace vodcache::scenario {

// Flash crowd: redirects `capture` of the sessions inside the window to
// one hot title (see FlashCrowdSpec).  The target is resolved eagerly from
// the catalog: rank `title_rank` by base weight among programs introduced
// by the window start.  Construction throws std::runtime_error when the
// spec does not fit the input (rank beyond catalog, window past horizon).
class FlashCrowdSource final : public trace::RemapSource {
 public:
  FlashCrowdSource(const trace::SessionSource& input,
                   const FlashCrowdSpec& spec);

 private:
  void remap(trace::SessionRecord& record, Rng& rng) const override;

  FlashCrowdSpec spec_;
  ProgramId target_;
};

// Release waves: rotates the popularity head through the catalog, one
// `wave_size` block per `period` (see ReleaseWavesSpec).  The per-wave
// eligible blocks (block programs already introduced at the wave start)
// are precomputed — O(horizon/period * wave_size), independent of the
// session count.
class ReleaseWavesSource final : public trace::RemapSource {
 public:
  ReleaseWavesSource(const trace::SessionSource& input,
                     const ReleaseWavesSpec& spec);

 private:
  void remap(trace::SessionRecord& record, Rng& rng) const override;

  ReleaseWavesSpec spec_;
  // blocks_[k]: program ids of wave k's block introduced by k*period.
  std::vector<std::vector<std::uint32_t>> blocks_;
};

// Neighborhood skew: population concentration plus regional catalog
// affinity (see NeighborhoodSkewSpec).  Replays the exact topology
// placement the simulation will use — the adaptor must be built with the
// same neighborhood_size the run's SystemConfig carries, or construction
// would skew different neighborhoods than the ones simulated.
class NeighborhoodSkewSource final : public trace::RemapSource {
 public:
  NeighborhoodSkewSource(const trace::SessionSource& input,
                         const NeighborhoodSkewSpec& spec,
                         std::uint32_t neighborhood_size);

 private:
  void remap(trace::SessionRecord& record, Rng& rng) const override;

  NeighborhoodSkewSpec spec_;
  hfc::Topology topology_;
  // Subscribers living in the first hot_neighborhoods neighborhoods.
  std::vector<std::uint32_t> hot_users_;
  // region_programs_[r]: back-catalog programs of slice r (always valid
  // redirect targets: introduced at or before time 0).
  std::vector<std::vector<std::uint32_t>> region_programs_;
};

}  // namespace vodcache::scenario
