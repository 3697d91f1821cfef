#include "trace/session_source.hpp"

#include <utility>
#include <vector>

namespace vodcache::trace {

class RemapSource::Stream final : public SessionStream {
 public:
  Stream(const RemapSource& source, std::unique_ptr<SessionStream> input)
      : source_(&source), input_(std::move(input)), rng_(source.seed_) {}

  bool next(SessionRecord& out) override {
    if (!input_->next(out)) return false;
    source_->remap(out, rng_);
    return true;
  }

 private:
  const RemapSource* source_;
  std::unique_ptr<SessionStream> input_;
  Rng rng_;
};

std::unique_ptr<SessionStream> RemapSource::open() const {
  return std::make_unique<Stream>(*this, input_->open());
}

Trace materialize(const SessionSource& source) {
  std::vector<SessionRecord> sessions;
  if (const auto hint = source.session_count_hint(); hint > 0) {
    sessions.reserve(static_cast<std::size_t>(hint));
  }
  auto stream = source.open();
  SessionRecord record;
  while (stream->next(record)) sessions.push_back(record);

  Trace trace(source.catalog(), std::move(sessions), source.user_count(),
              source.horizon());
  // Sources contract-guarantee valid sequences (external inputs validate at
  // source construction), so a violation here is a programming error.
  trace.validate();
  return trace;
}

}  // namespace vodcache::trace
