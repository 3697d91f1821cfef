#include "trace/trace.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vodcache::trace {

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

bool Trace::is_sorted() const {
  return std::is_sorted(sessions_.begin(), sessions_.end(),
                        [](const SessionRecord& a, const SessionRecord& b) {
                          return a.start < b.start;
                        });
}

std::optional<std::string> Trace::validation_error() const {
  if (!is_sorted()) return "sessions not sorted by start time";
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    const auto& s = sessions_[i];
    const auto where = " (session " + std::to_string(i) + ")";
    if (s.user.value() >= user_count_) return "user id out of range" + where;
    if (s.program.value() >= catalog_.size()) {
      return "program id out of range" + where;
    }
    if (s.duration <= sim::SimTime{}) return "non-positive duration" + where;
    if (s.duration > catalog_.length(s.program)) {
      return "duration exceeds program length" + where;
    }
    if (s.start < sim::SimTime{}) return "negative start time" + where;
    if (s.start >= horizon_) return "session starts past horizon" + where;
    if (s.start < catalog_.introduced(s.program)) {
      return "session precedes program introduction" + where;
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
