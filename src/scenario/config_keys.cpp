#include "scenario/config_keys.hpp"

#include <sstream>
#include <utility>

#include "cache/segment_store.hpp"
#include "core/policy_registry.hpp"
#include "util/parse.hpp"

namespace vodcache::scenario {

namespace {

using K = ValueKind;
// Generous enough for any realistic deployment, tight enough that the
// downstream millisecond and bit conversions cannot overflow int64.
constexpr double kMaxDays = 100'000;  // ~270 years
constexpr double kMaxHours = kMaxDays * 24;
constexpr double kMaxCount = 0xFFFFFFFF;  // uint32 ids
constexpr double kMaxGigabytes = 1e9;     // 1 exabyte
constexpr Bounds kUnit{0.0, 1.0};
constexpr Bounds kOpenUnit{0.0, 1.0, true};  // (0, 1]
constexpr Bounds kCost{0.0, 1e6};

std::uint32_t u32(const Value& v) {
  return static_cast<std::uint32_t>(v.integer);
}
sim::SimTime hours(const Value& v) { return sim::SimTime::hours(v.integer); }
DataSize gigabytes(const Value& v) { return DataSize::gigabytes(v.integer); }

// The window the outage keys fill.  A start of -1 ms marks "not set yet",
// so check_config can tell a window that got only one of its two keys.
hfc::TierOutage& outage(RunConfig& c) {
  auto& outages = hub(c.system).outages;
  if (outages.empty()) {
    outages.push_back({sim::SimTime::millis(-1), sim::SimTime{}});
  }
  return outages.front();
}

// Help order: workload, CLI source knobs, system, tiers, then the
// scenario-only adaptor sections.
constexpr ConfigKey kKeys[] = {
    {"--days", "workload", "days", K::Int, {1, kMaxDays}, "horizon in days",
     [](auto& c, auto& v) { c.scenario.workload.days = int(v.integer); }},
    {"--users", "workload", "users", K::Int, {1, kMaxCount}, "subscriber count",
     [](auto& c, auto& v) { c.scenario.workload.user_count = u32(v); }},
    {"--programs", "workload", "programs", K::Int, {1, kMaxCount},
     "catalog size",
     [](auto& c, auto& v) { c.scenario.workload.program_count = u32(v); }},
    {nullptr, "workload", "sessions_per_day", K::Real, {1e-6, 1e3},
     "sessions per subscriber per day", [](auto& c, auto& v) {
       c.scenario.workload.sessions_per_user_per_day = v.real;
     }},
    {"--seed", "workload", "seed", K::Seed, {}, "workload seed",
     [](auto& c, auto& v) { c.scenario.workload.seed = v.seed; }},
    {nullptr, "popularity", "zipf_exponent", K::Real, {0, 10}, "Zipf exponent",
     [](auto& c, auto& v) { c.scenario.workload.zipf_exponent = v.real; }},
    {nullptr, "popularity", "zipf_offset", K::Real, {0, 1e6},
     "Zipf rank offset",
     [](auto& c, auto& v) { c.scenario.workload.zipf_offset = v.real; }},
    {nullptr, "popularity", "freshness_boost", K::Real, {0, 1e6},
     "weight boost of a new release",
     [](auto& c, auto& v) { c.scenario.workload.freshness_boost = v.real; }},
    {nullptr, "popularity", "freshness_tau_days", K::Real, {1e-3, 1e4},
     "e-folding time of the release boost, days",
     [](auto& c, auto& v) { c.scenario.workload.freshness_tau_days = v.real; }},
    {nullptr, "popularity", "freshness_floor", K::Real, {1e-6, 1e3},
     "long-run weight multiplier",
     [](auto& c, auto& v) { c.scenario.workload.freshness_floor = v.real; }},
    {nullptr, "popularity", "back_catalog_fraction", K::Real, kUnit,
     "share of the catalog released before day 0", [](auto& c, auto& v) {
       c.scenario.workload.back_catalog_fraction = v.real;
     }},
    {"--scale-pop", nullptr, nullptr, K::Int, {1, 10'000},
     "population x N (paper sec. V-A jittered copies)",
     [](auto& c, auto& v) { c.scale_pop = u32(v); }},
    {"--scale-cat", nullptr, nullptr, K::Int, {1, 10'000},
     "catalog x N (paper sec. V-A random remap)",
     [](auto& c, auto& v) { c.scale_cat = u32(v); }},
    {"--materialize", nullptr, nullptr, K::Flag, {},
     "buffer the trace in memory (the report is byte-identical)",
     [](auto& c, auto& v) { c.materialize = v.integer != 0; }},
    {"--neighborhood", "system", "neighborhood", K::Int, {1, cache::kMaxPeers},
     "subscribers per neighborhood",
     [](auto& c, auto& v) { c.system.neighborhood_size = u32(v); }},
    {"--per-peer-gb", "system", "per_peer_gb", K::Int, {1, kMaxGigabytes},
     "storage contribution per set-top, GB",
     [](auto& c, auto& v) { c.system.per_peer_storage = gigabytes(v); }},
    {"--warmup-days", "system", "warmup_days", K::Int, {0, kMaxDays},
     "measurement warmup exclusion, days",
     [](auto& c, auto& v) { c.system.warmup = sim::SimTime::days(v.integer); }},
    {"--strategy", nullptr, nullptr, K::Name, {},
     "eviction scorer (see --list-strategies)",
     [](auto& c, auto& v) {
       c.system.strategy.kind = core::find_scorer(v.text)->kind;
     },
     core::scorer_keys},
    {"--admission-policy", nullptr, nullptr, K::Name, {},
     "admission gate (see --list-strategies)",
     [](auto& c, auto& v) {
       c.system.admission_policy.kind = core::find_admission(v.text)->kind;
     },
     core::admission_keys},
    {"--probation-hours", nullptr, nullptr, K::Int, {0, kMaxHours},
     "second-hit probation window, hours", [](auto& c, auto& v) {
       c.system.admission_policy.probation_window = hours(v);
     }},
    {"--headroom", nullptr, nullptr, K::Real, kOpenUnit,
     "coax-headroom admission fraction", [](auto& c, auto& v) {
       c.system.admission_policy.headroom_fraction = v.real;
     }},
    {"--history-hours", nullptr, nullptr, K::Int, {0, kMaxHours},
     "LFU/global history window, hours",
     [](auto& c, auto& v) { c.system.strategy.lfu_history = hours(v); }},
    {"--lag-minutes", nullptr, nullptr, K::Int, {0, kMaxHours * 60},
     "global popularity batching lag, minutes", [](auto& c, auto& v) {
       c.system.strategy.global_lag = sim::SimTime::minutes(v.integer);
     }},
    {"--segment-admission", nullptr, nullptr, K::Flag, {},
     "charge only stored bytes (ablation)", [](auto& c, auto& v) {
       c.system.admission = v.integer != 0 ? core::CacheAdmission::Segment
                                           : core::CacheAdmission::WholeProgram;
     }},
    {"--replicate", nullptr, nullptr, K::Flag, {},
     "replicate stream-saturated segments",
     [](auto& c, auto& v) { c.system.replicate_on_busy = v.integer != 0; }},
    {"--shadow-matrix", nullptr, nullptr, K::Flag, {},
     "shadow every (scorer x admission) pair in the same pass",
     [](auto& c, auto& v) { c.system.shadow_matrix = v.integer != 0; }},
    {"--policy-switch", "system", "policy_switch", K::Flag, {},
     "switch to a shadow pair that out-hits the primary k windows",
     [](auto& c, auto& v) { c.system.policy_switch = v.integer != 0; }},
    {"--switch-window", "system", "switch_window_hours", K::Int, {1, kMaxHours},
     "policy-switch comparison window, hours",
     [](auto& c, auto& v) { c.system.switch_window = hours(v); }},
    {"--switch-k", "system", "switch_windows_k", K::Int, {1, 1000},
     "consecutive windows a pair must win",
     [](auto& c, auto& v) { c.system.switch_windows_k = int(v.integer); }},
    {"--threads", nullptr, nullptr, K::Int, {1, 4096},
     "replay worker threads (any N gives the same report)",
     [](auto& c, auto& v) { c.system.threads = u32(v); }},
    {"--hub-fan-in", "tiers", "hub_fan_in", K::Int, {1, kMaxCount},
     "neighborhoods per hub node (a --hub-* flag adds the hub)",
     [](auto& c, auto& v) { hub(c.system).fan_in = u32(v); }},
    {"--hub-capacity-gb", "tiers", "hub_capacity_gb", K::Int,
     {0, kMaxGigabytes}, "pooled storage per hub node, GB",
     [](auto& c, auto& v) { hub(c.system).capacity = gigabytes(v); }},
    {"--hub-link-gbps", "tiers", "hub_link_gbps", K::Real, kCost,
     "hub refresh uplink cap, Gb/s (0 = none)", [](auto& c, auto& v) {
       hub(c.system).uplink = DataRate::gigabits_per_second(v.real);
     }},
    {"--hub-cost-per-gb", "tiers", "hub_cost_per_gb", K::Real, kCost,
     "transfer cost per GB served by the hub",
     [](auto& c, auto& v) { hub(c.system).cost_per_gb = v.real; }},
    {"--origin-cost-per-gb", "tiers", "origin_cost_per_gb", K::Real, kCost,
     "transfer cost per GB from the origin",
     [](auto& c, auto& v) { c.system.origin_cost_per_gb = v.real; }},
    {"--prefetch", "tiers", "prefetch", K::Name, {},
     "hub prior-storing policy (see --list-tiers)",
     [](auto& c, auto& v) {
       c.system.prefetch.kind = core::find_prefetch(v.text)->kind;
     },
     core::prefetch_keys},
    {"--prefetch-refresh-hours", "tiers", "refresh_hours", K::Int,
     {1, kMaxHours}, "prefetch plan rotation period, hours",
     [](auto& c, auto& v) { c.system.prefetch.refresh = hours(v); }},
    {nullptr, "tiers", "outage_start_hour", K::Int, {0, kMaxHours},
     "hour the whole hub tier goes offline",
     [](auto& c, auto& v) { outage(c).start = hours(v); }},
    {nullptr, "tiers", "outage_hours", K::Int, {1, kMaxHours},
     "length of the hub outage, hours",
     [](auto& c, auto& v) { outage(c).duration = hours(v); }},
    {nullptr, "scenario", "summary", K::Text, {}, "free-text summary",
     [](auto& c, auto& v) { c.scenario.summary = v.text; }},
    {nullptr, "flash_crowd", "title_rank", K::Int, {1, kMaxCount},
     "popularity rank of the hot title (1 = hottest)",
     [](auto& c, auto& v) { c.scenario.flash_crowd.title_rank = u32(v); }},
    {nullptr, "flash_crowd", "start_hour", K::Int, {0, kMaxHours},
     "hour the crowd arrives",
     [](auto& c, auto& v) { c.scenario.flash_crowd.start = hours(v); }},
    {nullptr, "flash_crowd", "duration_hours", K::Int, {1, kMaxHours},
     "length of the crowd window, hours",
     [](auto& c, auto& v) { c.scenario.flash_crowd.duration = hours(v); }},
    {nullptr, "flash_crowd", "capture", K::Real, kUnit,
     "share of in-window sessions sent to the hot title",
     [](auto& c, auto& v) { c.scenario.flash_crowd.capture = v.real; }},
    {nullptr, "flash_crowd", "seed", K::Seed, {}, "redirect draw seed",
     [](auto& c, auto& v) { c.scenario.flash_crowd.seed = v.seed; }},
    {nullptr, "release_waves", "period_hours", K::Int, {1, kMaxHours},
     "time between waves, hours",
     [](auto& c, auto& v) { c.scenario.release_waves.period = hours(v); }},
    {nullptr, "release_waves", "window_hours", K::Int, {1, kMaxHours},
     "how long each wave redirects sessions, hours",
     [](auto& c, auto& v) { c.scenario.release_waves.window = hours(v); }},
    {nullptr, "release_waves", "wave_size", K::Int, {1, kMaxCount},
     "programs per release block",
     [](auto& c, auto& v) { c.scenario.release_waves.wave_size = u32(v); }},
    {nullptr, "release_waves", "capture", K::Real, kUnit,
     "share of in-window sessions sent to the block",
     [](auto& c, auto& v) { c.scenario.release_waves.capture = v.real; }},
    {nullptr, "release_waves", "seed", K::Seed, {}, "redirect draw seed",
     [](auto& c, auto& v) { c.scenario.release_waves.seed = v.seed; }},
    {nullptr, "neighborhood_skew", "hot_neighborhoods", K::Int, {1, kMaxCount},
     "neighborhoods the population concentrates into",
     [](auto& c, auto& v) { c.scenario.skew.hot_neighborhoods = u32(v); }},
    {nullptr, "neighborhood_skew", "population_share", K::Real, kUnit,
     "share of sessions moved to hot-neighborhood viewers",
     [](auto& c, auto& v) { c.scenario.skew.population_share = v.real; }},
    {nullptr, "neighborhood_skew", "regions", K::Int, {0, kMaxCount},
     "catalog slices, one preferred per neighborhood (0 = off)",
     [](auto& c, auto& v) { c.scenario.skew.regions = u32(v); }},
    {nullptr, "neighborhood_skew", "regional_affinity", K::Real, kUnit,
     "share of sessions remapped into the neighborhood's slice",
     [](auto& c, auto& v) { c.scenario.skew.regional_affinity = v.real; }},
    {nullptr, "neighborhood_skew", "seed", K::Seed, {}, "skew draw seed",
     [](auto& c, auto& v) { c.scenario.skew.seed = v.seed; }},
    {nullptr, "failure_storm", "start_hour", K::Int, {0, kMaxHours},
     "hour of the first wave",
     [](auto& c, auto& v) { c.scenario.storm.start = hours(v); }},
    {nullptr, "failure_storm", "waves", K::Int, {1, 10'000}, "number of waves",
     [](auto& c, auto& v) { c.scenario.storm.waves = u32(v); }},
    {nullptr, "failure_storm", "period_hours", K::Int, {1, kMaxHours},
     "time between waves, hours",
     [](auto& c, auto& v) { c.scenario.storm.period = hours(v); }},
    {nullptr, "failure_storm", "fraction", K::Real, {1e-9, 1.0},
     "chance each wave wipes each peer",
     [](auto& c, auto& v) { c.scenario.storm.fraction = v.real; }},
    {nullptr, "failure_storm", "seed", K::Seed, {},
     "wipe draw seed of wave 0 (wave k uses seed + k)",
     [](auto& c, auto& v) { c.scenario.storm.seed = v.seed; }},
};

constexpr SectionEntry kSections[] = {
    {"scenario", "name and free-text summary of the workload"},
    {"workload", "base generator sizing (trace/generator.hpp defaults)"},
    {"popularity",
     "popularity regime: Zipf shape and freshness decay (figure 12 knobs)"},
    {"system", "topology and measurement overrides"},
    {"flash_crowd", "redirect a share of in-window sessions onto one hot title",
     [](RunConfig& c) { c.scenario.flash_crowd.enabled = true; }},
    {"release_waves",
     "rotate the popularity head through the catalog, one block per period",
     [](RunConfig& c) { c.scenario.release_waves.enabled = true; }},
    {"neighborhood_skew",
     "concentrate population into hot neighborhoods; regional catalog mixes",
     [](RunConfig& c) { c.scenario.skew.enabled = true; }},
    {"failure_storm", "scheduled waves of peer disk wipes",
     [](RunConfig& c) { c.scenario.storm.enabled = true; }},
    {"tiers",
     "regional-hub cache tier between the neighborhoods and the origin",
     [](RunConfig& c) { hub(c.system); }},
};

template <typename T>
T parse_number(std::string_view spelling, std::string_view text) {
  const auto value = util::parse_strict<T>(text);
  if (!value) {
    throw ConfigError("malformed value for '" + std::string(spelling) +
                      "': '" + std::string(text) + "'");
  }
  return *value;
}

// "[1, 100000]", "(0, 1]": integer bounds print as integers.
std::string interval(ValueKind kind, Bounds bounds) {
  std::ostringstream out;
  out << (bounds.lo_open ? '(' : '[');
  if (kind == K::Real) {
    out << bounds.lo << ", " << bounds.hi;
  } else {
    out << static_cast<std::int64_t>(bounds.lo) << ", "
        << static_cast<std::int64_t>(bounds.hi);
  }
  out << ']';
  return out.str();
}

Value parse_value(ValueKind kind, Bounds bounds, std::string_view spelling,
                  std::string_view text) {
  Value value;
  value.text = text;
  double number = 0.0;
  switch (kind) {
    // Seeds parse as the target type: 2^63.. is accepted, and a negative
    // seed is malformed rather than a silent wraparound.
    case K::Seed:
      value.seed = parse_number<std::uint64_t>(spelling, text);
      return value;
    case K::Name:
    case K::Text:
      return value;
    case K::Real:
      number = value.real = parse_number<double>(spelling, text);
      break;
    case K::Int:
    case K::Flag:
      value.integer = parse_number<std::int64_t>(spelling, text);
      number = static_cast<double>(value.integer);
      if (kind == K::Flag) bounds = {0.0, 1.0};
      break;
  }
  if ((bounds.lo_open ? number <= bounds.lo : number < bounds.lo) ||
      number > bounds.hi) {
    throw ConfigError("'" + std::string(spelling) + "' must be in " +
                      interval(kind, bounds) + ", got " + std::string(text));
  }
  return value;
}

// The options that are not config keys, for --help.
constexpr std::pair<const char*, const char*> kOtherOptions[] = {
    {"--trace FILE", "load a trace CSV instead of generating the workload"},
    {"--scenario FILE", "load a scenario file; later options override it"},
    {"--fail T F", "wipe fraction F of peers at hour T (repeatable)"},
    {"--json [FILE]", "emit the full report as JSON (no FILE or -: stdout)"},
    {"--list-strategies", "print the registered scorers and admissions"},
    {"--list-tiers", "print every registered hub prefetch policy"},
    {"--list-scenarios", "print every scenario file section and its keys"},
    {"--help", "print this text"},
};

// True when `text` is one whole entry of the "a|b|c" list `names` (so
// "a|b" is not a name).
bool is_entry(std::string_view names, std::string_view text) {
  for (;;) {
    const auto bar = names.find('|');
    if (names.substr(0, bar) == text) return true;
    if (bar == std::string_view::npos) return false;
    names.remove_prefix(bar + 1);
  }
}

bool is_listing(std::string_view arg) {
  return arg == "--help" || arg == "-h" || arg == "--list-strategies" ||
         arg == "--list-scenarios" || arg == "--list-tiers";
}

}  // namespace

std::span<const ConfigKey> config_keys() { return kKeys; }

const ConfigKey* find_cli_key(std::string_view flag) {
  for (const auto& row : kKeys) {
    if (row.cli != nullptr && row.cli == flag) return &row;
  }
  return nullptr;
}

const ConfigKey* find_scenario_key(std::string_view section,
                                   std::string_view key) {
  for (const auto& row : kKeys) {
    if (row.section != nullptr && row.section == section && row.key == key) {
      return &row;
    }
  }
  return nullptr;
}

void apply_key(const ConfigKey& row, std::string_view spelling,
               std::string_view text, RunConfig& config) {
  const auto value = parse_value(row.kind, row.bounds, spelling, text);
  if (row.kind == K::Name && !is_entry(row.names(), text)) {
    throw ConfigError("unknown value '" + std::string(text) + "' for '" +
                      std::string(spelling) + "' (use " + row.names() + ")");
  }
  row.set(config, value);
}

hfc::TierLevelSpec& hub(core::SystemConfig& system) {
  if (system.tiers.empty()) system.tiers.emplace_back();
  return system.tiers.front();
}

void check_config(const RunConfig& config) {
  // The adaptors against the final workload (later CLI flags may override
  // a file's days/users/programs).
  const auto& spec = config.scenario;
  const auto horizon = sim::SimTime::days(spec.workload.days);
  const auto catalog = spec.workload.program_count;
  if (spec.flash_crowd.enabled &&
      spec.flash_crowd.start + spec.flash_crowd.duration > horizon) {
    throw ConfigError("flash_crowd window ends past the workload horizon (" +
                      std::to_string(spec.workload.days) + " days)");
  }
  if (spec.release_waves.enabled && spec.release_waves.period > horizon) {
    throw ConfigError("release_waves period exceeds the workload horizon");
  }
  if (spec.release_waves.enabled && spec.release_waves.wave_size > catalog) {
    throw ConfigError("release_waves wave_size exceeds the catalog size");
  }
  if (spec.skew.enabled && spec.skew.regions > catalog) {
    throw ConfigError("neighborhood_skew regions exceeds the catalog size");
  }
  if (spec.skew.enabled && spec.skew.population_share == 0.0 &&
      spec.skew.regions == 0) {
    throw ConfigError(
        "neighborhood_skew enabled but both population_share and regions "
        "are off — delete the section or give it an effect");
  }
  if (spec.skew.enabled && spec.skew.regions > 0 &&
      spec.skew.regional_affinity == 0.0) {
    throw ConfigError(
        "neighborhood_skew has regions but regional_affinity = 0; set an "
        "affinity or drop the regions key");
  }
  if (spec.storm.enabled && spec.storm.start > horizon) {
    throw ConfigError("failure_storm starts past the workload horizon");
  }
  const auto& system = config.system;
  // Each key is bounded alone, but their product is the int64 bit count of
  // a neighborhood cache.
  if (!system.per_peer_storage.multipliable_by(system.neighborhood_size)) {
    throw ConfigError(
        "per_peer_gb x neighborhood (--per-peer-gb x --neighborhood) "
        "overflows the neighborhood cache capacity");
  }
  for (const auto& tier : system.tiers) {
    // Same product one tier up: a hub pools fan-in neighborhoods' demand.
    if (!tier.capacity.multipliable_by(tier.fan_in)) {
      throw ConfigError(
          "hub_capacity_gb x hub_fan_in (--hub-capacity-gb x --hub-fan-in) "
          "overflows the " + tier.name + " capacity — shrink the hub or its "
          "fan-in");
    }
    for (const auto& window : tier.outages) {
      if (window.start < sim::SimTime{} || window.duration <= sim::SimTime{}) {
        throw ConfigError(
            "tiers outage needs both outage_start_hour and outage_hours");
      }
      if (window.start > horizon) {
        throw ConfigError("tiers outage starts past the workload horizon");
      }
    }
  }
  if (system.policy_switch &&
      system.strategy.kind == core::StrategyKind::None) {
    throw ConfigError(
        "policy_switch (--policy-switch) needs a caching strategy: "
        "--strategy none has no cached set to hand over");
  }
  if (system.strategy.lfu_history == sim::SimTime{} &&
      system.builds_global_board()) {
    throw ConfigError(
        "--history-hours 0 leaves the GlobalLFU popularity board no window: "
        "--strategy global, --shadow-matrix and --policy-switch need "
        "--history-hours >= 1");
  }
}

void check_id_space(std::uint64_t users, std::uint64_t programs,
                    const RunConfig& config) {
  if (users * config.scale_pop > 0xFFFFFFFF) {
    throw ConfigError("users x --scale-pop overflows the 32-bit user id space");
  }
  if (programs * config.scale_cat > 0xFFFFFFFF) {
    throw ConfigError(
        "programs x --scale-cat overflows the 32-bit program id space");
  }
}

std::span<const SectionEntry> section_registry() { return kSections; }

const SectionEntry* find_section(std::string_view key) {
  for (const auto& entry : kSections) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

std::string section_keys() {
  std::string keys;
  for (const auto& entry : kSections) {
    if (!keys.empty()) keys += '|';
    keys += entry.key;
  }
  return keys;
}

std::string section_key_list(std::string_view section) {
  std::string keys;
  for (const auto& row : kKeys) {
    if (row.section == nullptr || row.section != section) continue;
    if (!keys.empty()) keys += ", ";
    keys += row.key;
  }
  return keys;
}

CliOptions parse_cli(const std::vector<std::string>& args) {
  if (args.empty()) throw ConfigError("missing command");
  CliOptions options;
  options.command = args[0];
  if (is_listing(options.command)) return options;
  if (options.command != "run" && options.command != "gen" &&
      options.command != "demand") {
    throw ConfigError("unknown command '" + options.command + "'");
  }
  auto& config = options.config;
  config.scenario.workload.days = 21;

  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw ConfigError("missing value for " + arg);
      return args[++i];
    };
    if (const auto* row = find_cli_key(arg)) {
      apply_key(*row, arg, row->kind == K::Flag ? "1" : value(), config);
    } else if (is_listing(arg)) {
      options.command = arg;
      return options;
    } else if (arg == "--trace") {
      options.trace_path = value();
    } else if (arg == "--scenario") {
      if (options.has_scenario) throw ConfigError("--scenario given twice");
      options.has_scenario = true;
      // The current config seeds the parse, so the 21-day default and
      // earlier flags survive every key the file does not set.
      config = load_scenario_file(value(), std::move(config));
    } else if (arg == "--fail") {
      core::SystemConfig::PeerFailure failure;
      failure.time = sim::SimTime::hours(
          parse_value(K::Int, {0, kMaxHours}, arg, value()).integer);
      failure.fraction = parse_value(K::Real, kOpenUnit, arg, value()).real;
      config.system.peer_failures.push_back(failure);
    } else if (arg == "--json") {
      options.emit_json = true;
      // Optional value: a path, or an explicit "-" for stdout (also the
      // default when the next token is another option).
      const bool has_path = i + 1 < args.size() &&
                            (args[i + 1][0] != '-' || args[i + 1] == "-");
      options.json_path = has_path ? args[++i] : "-";
    } else if (options.command == "gen" && options.output_path.empty() &&
               arg[0] != '-') {
      options.output_path = arg;
    } else {
      throw ConfigError("unknown option: " + arg);
    }
  }
  if (options.command == "gen" && options.output_path.empty()) {
    throw ConfigError("gen needs an output file");
  }
  if (options.has_scenario && !options.trace_path.empty()) {
    throw ConfigError(
        "--scenario defines its own generated workload; it cannot combine "
        "with --trace");
  }
  // Scaling adaptors on top would quietly change the declared workload:
  // population copies land outside the skew adaptor's topology and random
  // catalog remaps dissolve flash-crowd/release-wave targets.
  if (options.has_scenario && (config.scale_pop > 1 || config.scale_cat > 1)) {
    throw ConfigError(
        "--scenario cannot combine with --scale-pop/--scale-cat; set the "
        "scenario file's [workload] users/programs instead");
  }
  check_config(config);
  // A generated workload's id spaces are known before the (costly) source
  // is built; a CSV workload's once its header is read.
  if (options.trace_path.empty()) {
    check_id_space(config.scenario.workload.user_count,
                   config.scenario.workload.program_count, config);
  }
  return options;
}

std::string cli_usage() {
  std::ostringstream out;
  const auto line = [&](const std::string& spelling, const std::string& help) {
    // A spelling too long for the column puts its help on the next line.
    const bool wraps = spelling.size() >= 28;
    out << "  " << spelling << (wraps ? "\n  " : "")
        << std::string(wraps ? 28 : 28 - spelling.size(), ' ') << help << '\n';
  };
  const auto values = [](const ConfigKey& row) -> std::string {
    switch (row.kind) {
      case K::Name:
        return row.names();
      case K::Seed:
        return "[0, 2^64)";
      case K::Flag:
        return "0|1";
      case K::Text:
        return "text";
      default:
        return interval(row.kind, row.bounds);
    }
  };
  out << "usage: vodcache run|gen|demand [options]\n"
         "  run      simulate the cooperative cache and report\n"
         "  gen      write the workload as trace CSV (gen [options] FILE)\n"
         "  demand   no-cache demand profile only (fast)\n\n"
         "Defaults are the paper's deployment over a 21-day workload.  Each "
         "option lists\nits accepted values and, where one exists, its "
         "scenario-file spelling; a\n[section] key alone is set only in a "
         "scenario file (--scenario FILE).\n\n";
  for (const auto& row : kKeys) {
    // A bare CLI flag takes no value; its scenario key takes 0|1.
    const bool bare = row.cli != nullptr && row.kind == K::Flag;
    std::string key;
    if (row.section != nullptr) {
      key += '[';
      key += row.section;
      key += "] ";
      key += row.key;
    }
    const char* metavar = bare ? "" : row.kind == K::Name ? " NAME" : " N";
    line(row.cli == nullptr ? key : row.cli + std::string(metavar), row.help);
    std::string detail = bare ? "" : values(row);
    if (row.cli != nullptr && row.section != nullptr) {
      detail += bare ? "scenario: " : "; scenario: ";
      detail += key;
      if (bare) detail += " = 0|1";
    }
    if (!detail.empty()) line("", detail);
  }
  for (const auto& [spelling, help] : kOtherOptions) line(spelling, help);
  return out.str();
}

}  // namespace vodcache::scenario
