#include "trace/trace.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vodcache::trace {

const char* session_error(const SessionRecord& record,
                          const std::vector<ProgramInfo>& programs,
                          std::uint32_t user_count, sim::SimTime horizon) {
  if (record.user.value() >= user_count) return "user id out of range";
  if (record.program.value() >= programs.size()) {
    return "session references unknown program";
  }
  const auto& program = programs[record.program.value()];
  if (record.duration <= sim::SimTime{}) return "non-positive duration";
  if (record.duration > program.length) {
    return "duration exceeds program length";
  }
  if (record.start < sim::SimTime{}) return "negative start time";
  if (record.start >= horizon) return "session starts past horizon";
  if (record.start < program.introduced) {
    return "session precedes program introduction";
  }
  return nullptr;
}

Trace::Trace(Catalog catalog, std::vector<SessionRecord> sessions,
             std::uint32_t user_count, sim::SimTime horizon)
    : catalog_(std::move(catalog)),
      sessions_(std::move(sessions)),
      user_count_(user_count),
      horizon_(horizon) {
  std::stable_sort(sessions_.begin(), sessions_.end(),
                   [](const SessionRecord& a, const SessionRecord& b) {
                     return a.start < b.start;
                   });
}

namespace {

class TraceStream final : public SessionStream {
 public:
  explicit TraceStream(const Trace& trace) : trace_(&trace) {}

  bool next(SessionRecord& out) override {
    const auto& sessions = trace_->sessions();
    if (next_ >= sessions.size()) return false;
    out = sessions[next_++];
    return true;
  }

 private:
  const Trace* trace_;
  std::size_t next_ = 0;
};

}  // namespace

std::unique_ptr<SessionStream> Trace::open() const {
  return std::make_unique<TraceStream>(*this);
}

std::optional<std::string> Trace::validation_error() const {
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (const char* error = session_error(sessions_[i], catalog_.programs(),
                                          user_count_, horizon_)) {
      return std::string(error) + " (session " + std::to_string(i) + ")";
    }
  }
  return std::nullopt;
}

void Trace::validate() const {
  const auto error = validation_error();
  if (error) {
    detail::contract_failure("trace invariant", error->c_str(), __FILE__,
                             __LINE__);
  }
}

}  // namespace vodcache::trace
