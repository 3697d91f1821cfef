#include "trace/scaler.hpp"

#include <queue>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace vodcache::trace {

namespace {

// Population scaling's reorder buffer.  Copies are generated record-major
// (the RNG draw order) but emitted in (start, generation-order) order — the
// materialized trace's stable sort.  A copy of input record r has start in
// [start_r, horizon), and input starts are non-decreasing, so once the next
// input record starts at s every buffered copy with start <= s is final:
// nothing generated later can sort before it (later copies have start >= s,
// and on a tie the earlier generation order wins).  The buffer therefore
// never holds more than the 60 s jitter window of upstream sessions.
class PopulationScaledStream final : public SessionStream {
 public:
  PopulationScaledStream(std::unique_ptr<SessionStream> input,
                         std::uint32_t factor, std::uint32_t base_users,
                         sim::SimTime horizon, std::uint64_t seed)
      : input_(std::move(input)),
        factor_(factor),
        base_users_(base_users),
        horizon_(horizon),
        rng_(seed) {
    has_pending_ = input_->next(pending_);
  }

  bool next(SessionRecord& out) override {
    for (;;) {
      if (!buffer_.empty() &&
          (!has_pending_ || buffer_.top().record.start <= pending_.start)) {
        out = buffer_.top().record;
        buffer_.pop();
        return true;
      }
      if (!has_pending_) return false;
      expand(pending_);
      has_pending_ = input_->next(pending_);
    }
  }

 private:
  struct Pending {
    SessionRecord record;
    std::uint64_t seq;  // generation order: record-major, copies in k order
  };
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const {
      if (a.record.start != b.record.start) {
        return a.record.start > b.record.start;
      }
      return a.seq > b.seq;
    }
  };

  void expand(const SessionRecord& base) {
    for (std::uint32_t k = 0; k < factor_; ++k) {
      Pending copy{base, seq_++};
      copy.record.user = UserId{base.user.value() + k * base_users_};
      if (k > 0) {
        // Paper: "randomly change the start time between 1 and 60 seconds
        // to eliminate problems caused by synchronous accesses."
        copy.record.start =
            base.start + sim::SimTime::seconds(rng_.uniform_int(1, 60));
        // Keep the jittered copy inside the horizon and after release.
        if (copy.record.start >= horizon_) {
          copy.record.start = horizon_ - sim::SimTime::millis(1);
        }
      }
      buffer_.push(copy);
    }
  }

  std::unique_ptr<SessionStream> input_;
  const std::uint32_t factor_;
  const std::uint32_t base_users_;
  const sim::SimTime horizon_;
  Rng rng_;

  SessionRecord pending_;  // one-record lookahead into the input
  bool has_pending_ = false;
  std::priority_queue<Pending, std::vector<Pending>, Later> buffer_;
  std::uint64_t seq_ = 0;
};

}  // namespace

PopulationScaledSource::PopulationScaledSource(const SessionSource& input,
                                               std::uint32_t factor,
                                               std::uint64_t seed)
    : input_(&input), factor_(factor), seed_(seed) {
  VODCACHE_EXPECTS(factor >= 1);
  VODCACHE_EXPECTS(static_cast<std::uint64_t>(input.user_count()) * factor <=
                   0xFFFFFFFFULL);
}

std::uint32_t PopulationScaledSource::user_count() const {
  return input_->user_count() * factor_;
}

std::unique_ptr<SessionStream> PopulationScaledSource::open() const {
  // factor == 1 draws no RNG and copies nothing, matching the materialized
  // identity shortcut: the input stream already is the output.
  if (factor_ == 1) return input_->open();
  return std::make_unique<PopulationScaledStream>(
      input_->open(), factor_, input_->user_count(), input_->horizon(), seed_);
}

CatalogScaledSource::CatalogScaledSource(const SessionSource& input,
                                         std::uint32_t factor,
                                         std::uint64_t seed)
    : RemapSource(input, seed),
      factor_(factor),
      base_programs_(static_cast<std::uint32_t>(input.catalog().size())) {
  VODCACHE_EXPECTS(factor >= 1);
  const auto& base = input.catalog().programs();
  VODCACHE_EXPECTS(static_cast<std::uint64_t>(base.size()) * factor <=
                   0xFFFFFFFFULL);
  std::vector<ProgramInfo> programs;
  programs.reserve(base.size() * factor);
  for (std::uint32_t k = 0; k < factor; ++k) {
    for (const auto& info : base) programs.push_back(info);
  }
  catalog_ = Catalog(std::move(programs));
}

std::unique_ptr<SessionStream> CatalogScaledSource::open() const {
  if (factor_ == 1) return input().open();
  return RemapSource::open();
}

void CatalogScaledSource::remap(SessionRecord& record, Rng& rng) const {
  const auto k = static_cast<std::uint32_t>(rng.uniform_u64(factor_));
  record.program = ProgramId{record.program.value() + k * base_programs_};
}

}  // namespace vodcache::trace
