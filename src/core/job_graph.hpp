// JobGraph: an explicit task DAG for the work-stealing JobExecutor.
//
// A node is a closure, its kind and an optional debug name; an edge
// `depend(a, b)` means b may only start after a has finished.  The kind
// only labels the node's busy time in the executor's stats.  Construction
// is two-phase: add()/depend() accumulate nodes and an edge list, and
// finalize() (called implicitly by the executor) compacts the edges into
// CSR adjacency and verifies acyclicity with Kahn's algorithm — a cycle
// is a programming error in graph construction, reported as
// std::logic_error before any node runs.
//
// The graph itself carries no execution state: the executor keeps its own
// per-run copy of the dependency counts, so one graph can be run many
// times (the executor unit battery does) and the graph can be built on one
// thread and run on many.
//
// The scheduling guarantee consumers rely on (and the executor test
// battery pins): a node's closure runs exactly once, after every
// transitive predecessor's closure has *completed*, with a happens-before
// edge from each predecessor's effects to the node — so a chain of jobs
// may mutate shared state without synchronizing, and a join node observes
// all its predecessors' writes.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace vodcache::core {

using JobId = std::uint32_t;

// What a node of the sharded replay does (see ARCHITECTURE.md, "The job
// graph").
enum class JobKind : std::uint8_t { Demux, Prepass, Feed, Finish, Merge };
inline constexpr std::size_t kJobKinds = 5;

[[nodiscard]] const char* job_kind_name(JobKind kind);

class JobGraph {
 public:
  using JobFn = std::function<void()>;

  // Adds a node; `fn` may be empty (a pure synchronization point).
  JobId add(JobKind kind, JobFn fn, std::string name = {});

  // Declares that `child` must wait for `parent`.  Duplicate edges are
  // permitted and counted consistently (the child waits twice), but are
  // pointless — avoid them.
  void depend(JobId parent, JobId child);

  [[nodiscard]] std::size_t node_count() const { return fns_.size(); }
  [[nodiscard]] const std::string& name(JobId id) const { return names_[id]; }
  [[nodiscard]] JobKind kind(JobId id) const { return kinds_[id]; }

  // Compacts edges into CSR form and checks for cycles (throws
  // std::logic_error naming a node on one).  Idempotent; add()/depend()
  // after a finalize() re-open the graph and the next finalize() redoes
  // the work.
  void finalize();

  // Valid only after finalize().  children() lists a node's children in
  // depend() order.
  [[nodiscard]] std::uint32_t dependency_count(JobId id) const {
    return dep_count_[id];
  }
  [[nodiscard]] std::span<const JobId> children(JobId id) const {
    return {child_list_.data() + child_offset_[id],
            child_list_.data() + child_offset_[id + 1]};
  }
  void run_job(JobId id) const {
    if (fns_[id]) fns_[id]();
  }

 private:
  std::vector<JobFn> fns_;
  std::vector<JobKind> kinds_;
  std::vector<std::string> names_;
  std::vector<std::pair<JobId, JobId>> edges_;

  // CSR adjacency, built by finalize().
  std::vector<std::uint32_t> dep_count_;
  std::vector<std::uint32_t> child_offset_;  // node_count() + 1 entries
  std::vector<JobId> child_list_;
  bool finalized_ = false;
};

}  // namespace vodcache::core
