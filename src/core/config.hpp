// System configuration: every knob the paper's evaluation sweeps.
//
// Four of the paper's fixed parameters are constants, not knobs: the
// two-stream limit per box, the 5-minute segment, the evening peak window
// and the 15-minute meter bucket.  They stay members (static constexpr) so
// `config.segment_duration` reads the same as any other setting.
#pragma once

#include <cstdint>
#include <vector>

#include "hfc/settop.hpp"
#include "hfc/topology.hpp"
#include "sim/time.hpp"
#include "trace/catalog.hpp"
#include "util/units.hpp"

namespace vodcache::core {

// Eviction scorer selector.  The name mapping (CLI key, report spelling,
// one-line summary) and the factory for each kind live in the
// PolicyRegistry (core/policy_registry.hpp) — the single source of truth;
// to_string() and the CLI parser both read it.
enum class StrategyKind {
  // No caching at all: every request goes to the central server (the
  // paper's 17 Gb/s "no cache" baseline line).
  None,
  Lru,
  Lfu,
  Oracle,
  GlobalLfu,
  // Length-aware GreedyDual (GDSF): retention value per byte, with the
  // classic inflation aging.  Beyond the paper; see cache/greedy_dual.hpp.
  GreedyDual,
};

[[nodiscard]] const char* to_string(StrategyKind kind);

// Admission policy selector — the other axis of the policy matrix.  Name
// mapping and factories also live in the PolicyRegistry.
enum class AdmissionKind {
  // The paper's implicit behaviour: every miss may enter the cache.
  Always,
  // Probationary: admit only on the second access within a window.
  SecondHit,
  // Refuse admission while the neighborhood coax is near its cap.
  CoaxHeadroom,
  // TinyLFU: admit when a count-min-sketch frequency estimate clears the
  // threshold (O(1) memory, geometric aging via periodic halving).
  SketchLfu,
  // Coax-headroom whose fraction hill-climbs per rotation window against
  // the neighborhood's own hit-rate feedback.
  AdaptiveHeadroom,
};

[[nodiscard]] const char* to_string(AdmissionKind kind);

// What the index server admits and evicts as a unit.
enum class CacheAdmission {
  // Paper behaviour (section IV-B.1): a program is admitted whole — its
  // full size is charged against cache capacity immediately, evicting
  // victims as needed — and its segments then materialize from broadcasts.
  WholeProgram,
  // Ablation: charge only the bytes of segments actually stored.  The same
  // capacity then holds the hot *prefixes* of ~2-3x more programs (most
  // sessions are short), trading paper fidelity for efficiency.
  Segment,
};

[[nodiscard]] const char* to_string(CacheAdmission admission);

// Prefetch ("prior storing") policy selector for the tier caches above the
// neighborhoods: which programs a hub node pulls ahead of demand at each
// refresh.  The third axis of the policy matrix; the name mapping lives in
// the PolicyRegistry next to scorers and admissions, and TierPlanBuilder
// (core/tier_system.hpp) implements all three kinds.
enum class PrefetchKind {
  // Tier nodes store nothing: every neighborhood miss rides to the origin
  // (useful as the tiered-but-idle baseline).
  None,
  // Reactive: store each node's most-accessed programs of the previous
  // refresh window, highest demand first, while capacity and the uplink
  // rotation budget allow.
  TopPopular,
  // Clairvoyant: plan each window from that window's own accesses — the
  // upper bound a reactive prefetcher chases.
  Oracle,
};

[[nodiscard]] const char* to_string(PrefetchKind kind);

struct PrefetchConfig {
  PrefetchKind kind = PrefetchKind::TopPopular;
  // How often each tier node's resident set rotates.
  sim::SimTime refresh = sim::SimTime::hours(24);
  bool operator==(const PrefetchConfig&) const = default;
};

struct StrategyConfig {
  StrategyKind kind = StrategyKind::Lfu;
  // LFU/GlobalLFU: length of the access history ("N hours").  The paper's
  // figure 11 sweeps 0..12 days and finds 2-7 days the sweet spot.
  sim::SimTime lfu_history = sim::SimTime::hours(72);
  // GlobalLFU: batching lag for global popularity (0 = continuous).
  sim::SimTime global_lag;
  bool operator==(const StrategyConfig&) const = default;
};

struct AdmissionPolicyConfig {
  AdmissionKind kind = AdmissionKind::Always;
  // SecondHit: how recent the previous access must be for a re-access to
  // admit the program.
  sim::SimTime probation_window = sim::SimTime::hours(24);
  // CoaxHeadroom: admission is refused once the coax bucket rate reaches
  // this fraction of the plant's available downstream band
  // (CoaxSpec::available_low, the conservative figure).  AdaptiveHeadroom
  // starts its climb from the same value.  (SketchLfu's geometry and
  // AdaptiveHeadroom's climb are fixed; see core/policy_registry.cpp.)
  double headroom_fraction = 0.9;
  bool operator==(const AdmissionPolicyConfig&) const = default;
};

struct SystemConfig {
  // Topology sizing (paper: "typical real world sizes ... between 100 and
  // 1,000 subscribers").
  std::uint32_t neighborhood_size = 1000;

  // Per-peer storage contribution (paper: at most 10 GB of a ~40 GB disk).
  DataSize per_peer_storage = DataSize::gigabytes(10);

  // The paper's two-stream limit per box (hfc::kPeerStreamLimit).
  static constexpr int peer_stream_limit = hfc::kPeerStreamLimit;

  // "Data is transmitted at a rate of 8.06 Mb/s", the minimum rate for
  // uninterrupted high-quality MPEG-2 SDTV playback.
  DataRate stream_rate = DataRate::megabits_per_second(8.06);

  // Extension (off by default to match the paper): when every replica of a
  // cached segment is stream-saturated (busy miss), let the index server
  // tell one more peer to read the miss broadcast off the wire, adaptively
  // replicating hot segments.  bench_ablation_design sweeps it.
  bool replicate_on_busy = false;

  // Admission/eviction granularity; see CacheAdmission.
  CacheAdmission admission = CacheAdmission::WholeProgram;

  // Failure injection: at `time`, each peer in every neighborhood loses its
  // disk contents independently with probability `fraction` (deterministic
  // per `seed`).  The paper assumes always-on boxes with no churn; this
  // extension measures how the cooperative cache self-heals when that
  // assumption breaks.
  struct PeerFailure {
    sim::SimTime time;
    double fraction = 0.0;
    std::uint64_t seed = 0xFA11;
    bool operator==(const PeerFailure&) const = default;
  };
  std::vector<PeerFailure> peer_failures;

  // "Programs are divided into 5 minute segments" (the catalog's constant).
  static constexpr sim::SimTime segment_duration = trace::kSegmentDuration;

  StrategyConfig strategy;

  // Which misses may enter the cache at all (composes with any strategy;
  // Always reproduces the paper).
  AdmissionPolicyConfig admission_policy;

  // Shadow evaluation: every registered (scorer x admission) pair keeps its
  // own cached-set bookkeeping against the same session stream, emitting
  // the full policy matrix from one pass (report.shadow_matrix).  Shadows
  // move no bytes and touch no meters, so the primary policy's report is
  // byte-identical to a run with this off.
  bool shadow_matrix = false;

  // Live policy switching (cache::PolicySwitcher): per neighborhood, every
  // cell's windowed hit count is compared against the primary cell's, and
  // when one cell wins `switch_windows_k` consecutive data-carrying
  // windows of `switch_window` the index server serves from it from then
  // on (warm switch: its cached set is already built; the old primary
  // keeps running as a shadow).  Implies every pair's cell (they run even
  // with shadow_matrix off); the report gains a `policy_switches` log.
  // Requires a real strategy (StrategyKind::None has no cached set to
  // hand over).
  bool policy_switch = false;
  sim::SimTime switch_window = sim::SimTime::hours(6);
  int switch_windows_k = 3;

  // Evening peak window used for all reported statistics (see DESIGN.md on
  // the paper's 7-11 PM / "three hour period" ambiguity).
  static constexpr sim::HourWindow peak_window{19, 22};

  // Bandwidth-accounting bucket (matches the paper's 15-minute figure 2
  // granularity and its per-sample quantile error bars).
  static constexpr sim::SimTime meter_bucket = sim::SimTime::minutes(15);

  // Cache warmup: measurement starts this far into the trace so that the
  // paper's steady-state numbers are not diluted by the initially-empty
  // cache.  (The paper replays 7 months, where warmup is negligible; our
  // default workload is weeks.)  Clamped to at most half the horizon.
  sim::SimTime warmup = sim::SimTime::days(7);

  // Coax plant parameters, for feasibility reporting (figure 14).
  hfc::CoaxSpec coax;

  // Worker threads for the sharded replay (one shard per neighborhood).
  // Purely an execution knob: every thread count produces a bit-identical
  // report, so it never belongs in a result's provenance.  1 = run shards
  // inline on the calling thread.
  std::uint32_t threads = 1;

  // Streaming demux granularity: the session stream is pulled into
  // per-neighborhood batches one time-chunk at a time, and the shards
  // replay each chunk on the worker pool before the next is pulled.  Peak
  // memory scales with sessions per chunk; smaller chunks mean more
  // synchronization barriers.  Like `threads`, purely an execution knob —
  // the chunk boundary is invisible to every shard's event sequence, so
  // any value produces a bit-identical report (pinned in
  // tests/session_source_test.cpp).
  sim::SimTime stream_chunk = sim::SimTime::hours(1);

  // Aggregation tiers between the neighborhoods and the origin, nearest
  // first (e.g. {hub} or {hub, region}).  Empty — the default — is the
  // paper's two-level world, and every report stays byte-identical to the
  // pre-tier format (pinned in tests/policy_identity_test.cpp).
  std::vector<hfc::TierLevelSpec> tiers;

  // Prior-storing policy for the tier caches (ignored when `tiers` is
  // empty).
  PrefetchConfig prefetch;

  // Per-gigabyte price of origin ("cloud") egress, the top of the
  // cost-vs-hit-rate frontier the tiered reports draw.  Only read when
  // tiers are configured.
  double origin_cost_per_gb = 0.05;

  // Total cache capacity of a (full) neighborhood.
  [[nodiscard]] DataSize neighborhood_cache_capacity() const {
    return per_peer_storage * neighborhood_size;
  }

  // True when the run builds the GlobalLFU popularity board, windowed to
  // `strategy.lfu_history`: a global primary, or a mode that instantiates
  // every registered scorer.
  [[nodiscard]] bool builds_global_board() const {
    return strategy.kind == StrategyKind::GlobalLfu || shadow_matrix ||
           policy_switch;
  }

  void validate() const;
  bool operator==(const SystemConfig&) const = default;
};

}  // namespace vodcache::core
