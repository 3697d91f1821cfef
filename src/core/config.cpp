#include "core/config.hpp"

#include <cmath>

#include "core/policy_registry.hpp"
#include "util/assert.hpp"

namespace vodcache::core {

const char* to_string(StrategyKind kind) {
  return scorer_entry(kind).display;
}

const char* to_string(AdmissionKind kind) {
  return admission_entry(kind).display;
}

const char* to_string(PrefetchKind kind) {
  return prefetch_entry(kind).display;
}

const char* to_string(CacheAdmission admission) {
  switch (admission) {
    case CacheAdmission::WholeProgram:
      return "whole-program";
    case CacheAdmission::Segment:
      return "segment";
  }
  return "?";
}

void SystemConfig::validate() const {
  VODCACHE_EXPECTS(neighborhood_size > 0);
  VODCACHE_EXPECTS(per_peer_storage >= DataSize{});
  VODCACHE_EXPECTS(stream_rate.bps() > 0.0);
  VODCACHE_EXPECTS(strategy.lfu_history >= sim::SimTime{});
  // A zero window is LFU's pure-LRU point, but the board needs a window.
  VODCACHE_EXPECTS(strategy.lfu_history > sim::SimTime{} ||
                   !builds_global_board());
  VODCACHE_EXPECTS(strategy.global_lag >= sim::SimTime{});
  VODCACHE_EXPECTS(admission_policy.probation_window >= sim::SimTime{});
  VODCACHE_EXPECTS(admission_policy.headroom_fraction > 0.0 &&
                   admission_policy.headroom_fraction <= 1.0);
  VODCACHE_EXPECTS(switch_window > sim::SimTime{});
  VODCACHE_EXPECTS(switch_windows_k >= 1);
  // A no-cache primary has no cached set to hand over in a warm switch.
  VODCACHE_EXPECTS(!policy_switch || strategy.kind != StrategyKind::None);
  VODCACHE_EXPECTS(warmup >= sim::SimTime{});
  VODCACHE_EXPECTS(threads >= 1);
  VODCACHE_EXPECTS(stream_chunk > sim::SimTime{});
  for (const auto& failure : peer_failures) {
    VODCACHE_EXPECTS(failure.fraction >= 0.0 && failure.fraction <= 1.0);
    VODCACHE_EXPECTS(failure.time >= sim::SimTime{});
  }
  VODCACHE_EXPECTS(tiers.size() <= 8);
  for (const auto& tier : tiers) {
    VODCACHE_EXPECTS(!tier.name.empty());
    // Names land in JSON unescaped; keep them to a safe identifier set.
    for (const char c : tier.name) {
      VODCACHE_EXPECTS((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                       c == '-' || c == '_');
    }
    VODCACHE_EXPECTS(tier.fan_in >= 1);
    VODCACHE_EXPECTS(tier.capacity >= DataSize{});
    VODCACHE_EXPECTS(tier.uplink.bps() >= 0.0);
    VODCACHE_EXPECTS(std::isfinite(tier.cost_per_gb) &&
                     tier.cost_per_gb >= 0.0);
    for (const auto& outage : tier.outages) {
      VODCACHE_EXPECTS(outage.start >= sim::SimTime{});
      VODCACHE_EXPECTS(outage.duration > sim::SimTime{});
    }
  }
  VODCACHE_EXPECTS(prefetch.refresh > sim::SimTime{});
  VODCACHE_EXPECTS(std::isfinite(origin_cost_per_gb) &&
                   origin_cost_per_gb >= 0.0);
}

}  // namespace vodcache::core
