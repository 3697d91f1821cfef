#include "core/neighborhood_shard.hpp"

#include <algorithm>
#include <utility>

#include "core/policy_registry.hpp"
#include "util/assert.hpp"

namespace vodcache::core {

NeighborhoodShard::NeighborhoodShard(
    NeighborhoodId id, std::uint32_t peer_count, const trace::Catalog& catalog,
    sim::SimTime horizon, const SystemConfig& config,
    const cache::FutureIndex* future,
    std::shared_ptr<const cache::ReplayBoard> board,
    std::vector<PendingFailure> failures, const TierSystem* tiers,
    std::vector<std::uint32_t> tier_nodes)
    : catalog_(catalog),
      config_(config),
      future_(future),
      board_(std::move(board)),
      view_(board_ != nullptr && config.builds_global_board()
                ? std::make_unique<cache::ReplayView>(*board_)
                : nullptr),
      history_(std::make_unique<cache::AccessHistory>()),
      media_(horizon, config.meter_bucket),
      server_(id, peer_count, config, catalog, make_cells(), media_, horizon,
              tiers, std::move(tier_nodes)),
      failures_(std::move(failures)) {
  if (history_->empty()) history_.reset();
  if (config_.policy_switch) {
    switcher_ = std::make_unique<cache::PolicySwitcher>(
        config_.switch_window, config_.switch_windows_k,
        server_.cells().size());
  }
}

IndexServer::Plan NeighborhoodShard::make_cells() {
  // Every cell shares this shard's policy context: one access history, and
  // GlobalLFU cells read the same replay view, Oracle cells the same
  // future index — the orchestrator builds both for the matrix because its
  // needs() treats shadow_matrix like running those strategies.
  const PolicyContext context{config_, catalog_, *history_, future_,
                              view_.get()};
  const bool matrix = config_.shadow_matrix || config_.policy_switch;
  IndexServer::Plan plan;
  for (const auto& scorer : scorer_registry()) {
    if (scorer.kind == StrategyKind::None) continue;
    for (const auto& admission : admission_registry()) {
      const bool configured =
          scorer.kind == config_.strategy.kind &&
          admission.kind == config_.admission_policy.kind;
      if (!matrix && !configured) continue;
      if (configured) plan.primary = plan.cells.size();
      plan.cells.push_back({scorer.display, admission.display,
                            scorer.make(context), admission.make(context)});
    }
  }
  if (matrix) plan.rows = plan.cells.size();
  if (config_.strategy.kind == StrategyKind::None) {
    plan.primary = plan.cells.size();
  }
  return plan;
}

void NeighborhoodShard::apply_failures(sim::SimTime now) {
  while (next_failure_ < failures_.size() &&
         failures_[next_failure_].time <= now) {
    for (const PeerId peer : failures_[next_failure_].peers) {
      server_.fail_peer(peer);
    }
    ++next_failure_;
  }
}

void NeighborhoodShard::maybe_switch(sim::SimTime t) {
  if (switcher_ == nullptr) return;
  const auto cells = server_.cells();
  const auto decision =
      switcher_->evaluate(t, server_.segments(), cells, server_.primary());
  if (!decision) return;

  // Both sides' cumulative counts at the switch instant: the primary's
  // continuous history, and the winner's own counts — a standalone run of
  // its pair.  From here on the index server serves from the winner's
  // cell, whose admit bits are already in every live slot's mask, so the
  // primary replays that run's continuation exactly and the snapshots pin
  // the warm switch (tests/policy_switcher_test.cpp).
  const cache::CacheCell& from = cells[server_.primary()];
  const cache::CacheCell& to = cells[decision->cell];
  const auto primary = server_.counters();
  const auto winner = server_.counters(decision->cell);
  switch_log_.push_back({id().value(), t, from.scorer_name(),
                         from.admission_name(), to.scorer_name(),
                         to.admission_name(), decision->window_primary_hits,
                         decision->window_winner_hits, primary.hits,
                         primary.cold_misses, primary.busy_misses,
                         winner.hits, winner.cold_misses, winner.busy_misses});
  server_.promote(decision->cell);
}

void NeighborhoodShard::run_next_boundary() {
  const Boundary due = boundaries_.front();
  boundaries_.pop_front();
  const auto t = sim::SimTime::millis(due.time_ms);
  if (view_ != nullptr) view_->on_boundary(t);
  apply_failures(t);
  maybe_switch(t);
  play_segment(due.slot, t);
}

void NeighborhoodShard::start_session(const StreamSession& stream_session) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const auto& record = stream_session.record;
  const sim::SimTime end = record.start + record.duration;
  slots_[slot] = {record.start.millis_count(), end.millis_count(),
                  record.program.value(), stream_session.viewer.value(),
                  server_.start_session(record.program, record.start)};
  server_.occupy_viewer_slot(stream_session.viewer, {record.start, end});

  play_segment(slot, record.start);
}

void NeighborhoodShard::play_segment(std::uint32_t slot, sim::SimTime at) {
  const Slot& session = slots_[slot];
  const sim::SimTime start = sim::SimTime::millis(session.start_ms);
  const sim::SimTime end = sim::SimTime::millis(session.end_ms);
  const ProgramId program{session.program};
  VODCACHE_ASSERT(at < end);

  const auto segment_ms = config_.segment_duration.millis_count();
  const std::int64_t watched_ms = (at - start).millis_count();
  const auto segment_index = static_cast<std::uint32_t>(watched_ms / segment_ms);

  // The transmission runs until the next segment boundary or session end.
  const sim::SimTime boundary =
      start +
      sim::SimTime::millis((static_cast<std::int64_t>(segment_index) + 1) *
                           segment_ms);
  const sim::SimTime tx_end = std::min(boundary, end);

  // Nominal slice of this segment: 300 s, except a shorter final segment.
  const sim::SimTime program_length = catalog_.length(program);
  const sim::SimTime nominal_end = std::min(boundary, start + program_length);
  const bool full_slice = tx_end >= nominal_end;

  server_.serve_segment(PeerId{session.viewer},
                        cache::SegmentKey{program, segment_index},
                        {at, tx_end}, session.admit, full_slice);

  if (tx_end >= end) {
    // Final slice: the session is over and has nothing queued, so its
    // slot may be reused at once.
    free_slots_.push_back(slot);
    return;
  }
  // Every event is a segment start, so the next boundary is one segment
  // on; the queue's order rests on this.
  VODCACHE_ASSERT(boundary == at + config_.segment_duration);
  boundaries_.push_back({boundary.millis_count(), slot});
}

void NeighborhoodShard::feed(std::span<const StreamSession> batch) {
  VODCACHE_EXPECTS(!finished_);
  for (const auto& stream_session : batch) {
    const auto start = stream_session.record.start;
    const ProgramId program = stream_session.record.program;
    const std::int64_t start_ms = start.millis_count();
    // The queue stays in time order only while no start precedes an event
    // already run.
    VODCACHE_EXPECTS(start_ms >= last_start_ms_);
    VODCACHE_EXPECTS(stream_session.record.duration <=
                     catalog_.length(program));
    last_start_ms_ = start_ms;
    // Boundaries go first on ties: a boundary event at time t completes a
    // transmission in [.., t), so running it before a session that begins
    // at t matches wall-clock causality (and keeps fills from "future"
    // transmissions out of the picture).  Either order would be
    // deterministic; this one is the seed's.
    while (!boundaries_.empty() && boundaries_.front().time_ms <= start_ms) {
      run_next_boundary();
    }
    if (view_ != nullptr) {
      view_->on_session_start(static_cast<std::size_t>(stream_session.index),
                              program, start);
    }
    if (history_ != nullptr) history_->record(program, start);
    apply_failures(start);
    maybe_switch(start);
    start_session(stream_session);
  }
}

void NeighborhoodShard::finish(sim::SimTime failure_flush) {
  VODCACHE_EXPECTS(!finished_);
  finished_ = true;

  // Play out everything still active.
  while (!boundaries_.empty()) run_next_boundary();
  // The serial engine applies a failure wave at the first event anywhere in
  // the system at or after its time — including waves after this
  // neighborhood's last own event.  Flush those now.
  apply_failures(failure_flush);
}

}  // namespace vodcache::core
