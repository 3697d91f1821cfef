#include "core/job_graph.hpp"

#include <stdexcept>
#include <utility>

#include "util/assert.hpp"

namespace vodcache::core {

const char* job_kind_name(JobKind kind) {
  switch (kind) {
    case JobKind::Demux:
      return "demux";
    case JobKind::Prepass:
      return "prepass";
    case JobKind::Feed:
      return "feed";
    case JobKind::Finish:
      return "finish";
    case JobKind::Merge:
      return "merge";
  }
  return "?";
}

JobId JobGraph::add(JobKind kind, JobFn fn, std::string name) {
  finalized_ = false;
  const auto id = static_cast<JobId>(fns_.size());
  fns_.push_back(std::move(fn));
  kinds_.push_back(kind);
  names_.push_back(std::move(name));
  return id;
}

void JobGraph::depend(JobId parent, JobId child) {
  VODCACHE_EXPECTS(parent < fns_.size());
  VODCACHE_EXPECTS(child < fns_.size());
  VODCACHE_EXPECTS(parent != child);
  finalized_ = false;
  edges_.emplace_back(parent, child);
}

void JobGraph::finalize() {
  if (finalized_) return;
  const auto nodes = fns_.size();

  dep_count_.assign(nodes, 0);
  child_offset_.assign(nodes + 1, 0);
  for (const auto& [parent, child] : edges_) {
    ++dep_count_[child];
    ++child_offset_[parent + 1];
  }
  for (std::size_t n = 0; n < nodes; ++n) {
    child_offset_[n + 1] += child_offset_[n];
  }
  child_list_.resize(edges_.size());
  // Fill each parent's run front to back: children keep depend() order,
  // which the replay relies on (a worker runs the child pushed last first).
  std::vector<std::uint32_t> cursor(child_offset_.begin(),
                                    child_offset_.end() - 1);
  for (const auto& [parent, child] : edges_) {
    child_list_[cursor[parent]++] = child;
  }

  // Kahn's algorithm: if a topological order does not cover every node,
  // the leftover nodes sit on a cycle.
  std::vector<std::uint32_t> pending(dep_count_);
  std::vector<JobId> ready;
  ready.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    if (pending[n] == 0) ready.push_back(static_cast<JobId>(n));
  }
  std::size_t ordered = 0;
  while (ordered < ready.size()) {
    const JobId id = ready[ordered++];
    for (const JobId child : children(id)) {
      if (--pending[child] == 0) ready.push_back(child);
    }
  }
  if (ordered != nodes) {
    for (std::size_t n = 0; n < nodes; ++n) {
      if (pending[n] != 0) {
        throw std::logic_error(
            "JobGraph: dependency cycle through node " + std::to_string(n) +
            (names_[n].empty() ? std::string{} : " (" + names_[n] + ")"));
      }
    }
  }
  finalized_ = true;
}

}  // namespace vodcache::core
