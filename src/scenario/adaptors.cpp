#include "scenario/adaptors.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace vodcache::scenario {

namespace {

[[noreturn]] void spec_error(const std::string& what) {
  throw std::runtime_error("scenario: " + what);
}

// Clamp a remapped session inside its new program.
void retarget(trace::SessionRecord& record, std::uint32_t program,
              const trace::Catalog& catalog) {
  record.program = ProgramId{program};
  record.duration = std::min(record.duration, catalog.length(record.program));
}

}  // namespace

FlashCrowdSource::FlashCrowdSource(const trace::SessionSource& input,
                                   const FlashCrowdSpec& spec)
    : RemapSource(input, spec.seed), spec_(spec) {
  if (spec.start + spec.duration > input.horizon()) {
    spec_error("flash_crowd window ends past the workload horizon");
  }
  // Rank the programs available at the window start by base weight (ties:
  // lower id), then pick the title_rank-th — "the premiere everyone tunes
  // into" is the hottest thing actually on the shelf.
  const auto& programs = input.catalog().programs();
  std::vector<std::uint32_t> available;
  for (std::uint32_t i = 0; i < programs.size(); ++i) {
    if (programs[i].introduced <= spec.start) available.push_back(i);
  }
  if (spec.title_rank == 0 || spec.title_rank > available.size()) {
    std::ostringstream message;
    message << "flash_crowd title_rank " << spec.title_rank << " out of range:"
            << " only " << available.size()
            << " programs are introduced by the window start";
    spec_error(message.str());
  }
  std::nth_element(
      available.begin(), available.begin() + (spec.title_rank - 1),
      available.end(), [&](std::uint32_t a, std::uint32_t b) {
        if (programs[a].base_weight != programs[b].base_weight) {
          return programs[a].base_weight > programs[b].base_weight;
        }
        return a < b;
      });
  target_ = ProgramId{available[spec.title_rank - 1]};
}

void FlashCrowdSource::remap(trace::SessionRecord& record, Rng& rng) const {
  if (record.start >= spec_.start &&
      record.start < spec_.start + spec_.duration &&
      rng.uniform_double() < spec_.capture) {
    retarget(record, target_.value(), catalog());
  }
}

ReleaseWavesSource::ReleaseWavesSource(const trace::SessionSource& input,
                                       const ReleaseWavesSpec& spec)
    : RemapSource(input, spec.seed), spec_(spec) {
  const auto catalog_size =
      static_cast<std::uint32_t>(input.catalog().size());
  if (spec.wave_size == 0 || spec.wave_size > catalog_size) {
    spec_error("release_waves wave_size must be in [1, catalog size]");
  }
  const auto period_ms = spec.period.millis_count();
  const auto waves = static_cast<std::size_t>(
      (input.horizon().millis_count() + period_ms - 1) / period_ms);
  const auto& programs = input.catalog().programs();
  blocks_.resize(waves);
  for (std::size_t k = 0; k < waves; ++k) {
    const auto wave_begin =
        sim::SimTime::millis(static_cast<std::int64_t>(k) * period_ms);
    auto& block = blocks_[k];
    block.reserve(spec.wave_size);
    for (std::uint32_t j = 0; j < spec.wave_size; ++j) {
      const auto id = static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(k) * spec.wave_size + j) % catalog_size);
      if (programs[id].introduced <= wave_begin) block.push_back(id);
    }
  }
}

void ReleaseWavesSource::remap(trace::SessionRecord& record,
                               Rng& rng) const {
  const auto period_ms = spec_.period.millis_count();
  const auto k =
      static_cast<std::size_t>(record.start.millis_count() / period_ms);
  const auto wave_begin =
      sim::SimTime::millis(static_cast<std::int64_t>(k) * period_ms);
  const auto& block = blocks_[k];
  if (record.start - wave_begin < spec_.window && !block.empty() &&
      rng.uniform_double() < spec_.capture) {
    retarget(record, block[rng.uniform_u64(block.size())], catalog());
  }
}

NeighborhoodSkewSource::NeighborhoodSkewSource(
    const trace::SessionSource& input, const NeighborhoodSkewSpec& spec,
    std::uint32_t neighborhood_size)
    : RemapSource(input, spec.seed),
      spec_(spec),
      topology_(hfc::Topology::build(input.user_count(), neighborhood_size)) {
  if (spec.hot_neighborhoods == 0 ||
      spec.hot_neighborhoods > topology_.neighborhood_count()) {
    std::ostringstream message;
    message << "neighborhood_skew hot_neighborhoods " << spec.hot_neighborhoods
            << " out of range: the run has " << topology_.neighborhood_count()
            << " neighborhoods (users / neighborhood size)";
    spec_error(message.str());
  }
  if (spec.population_share > 0.0) {
    for (std::uint32_t u = 0; u < input.user_count(); ++u) {
      if (topology_.neighborhood_of(UserId{u}).value() <
          spec.hot_neighborhoods) {
        hot_users_.push_back(u);
      }
    }
    // hot_neighborhoods >= 1 and every neighborhood is non-empty by
    // construction, so the hot block cannot be empty.
    VODCACHE_ASSERT(!hot_users_.empty());
  }
  if (spec.regions > 0) {
    const auto& programs = input.catalog().programs();
    const auto catalog_size = static_cast<std::uint32_t>(programs.size());
    if (spec.regions > catalog_size) {
      spec_error("neighborhood_skew regions exceeds the catalog size");
    }
    region_programs_.resize(spec.regions);
    // Slice r covers the contiguous id range [r*C/R, (r+1)*C/R); only
    // back-catalog programs (introduced at or before time 0) are redirect
    // targets, so a remap can never precede its program's introduction.
    for (std::uint32_t r = 0; r < spec.regions; ++r) {
      const auto begin = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(r) * catalog_size / spec.regions);
      const auto end = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(r + 1) * catalog_size / spec.regions);
      for (std::uint32_t id = begin; id < end; ++id) {
        if (programs[id].introduced <= sim::SimTime{}) {
          region_programs_[r].push_back(id);
        }
      }
    }
  }
}

void NeighborhoodSkewSource::remap(trace::SessionRecord& record,
                                   Rng& rng) const {
  if (spec_.population_share > 0.0 &&
      rng.uniform_double() < spec_.population_share) {
    record.user = UserId{hot_users_[rng.uniform_u64(hot_users_.size())]};
  }
  if (spec_.regions > 0) {
    const auto n = topology_.neighborhood_of(record.user).value();
    const auto& slice = region_programs_[n % spec_.regions];
    if (!slice.empty() && rng.uniform_double() < spec_.regional_affinity) {
      retarget(record, slice[rng.uniform_u64(slice.size())], catalog());
    }
  }
}

}  // namespace vodcache::scenario
