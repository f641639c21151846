#pragma once
// Attempt tracking for the SelectionRuntime (the JobTracker's task-attempt
// table). Every dispatched task becomes a TaskAttempt on a deterministic
// logical clock — one executed read attempt advances the clock by one tick,
// and when nothing is ready the clock jumps straight to the next deadline or
// backoff expiry (event-driven, so stalled plans finish in O(attempts) loop
// iterations, not O(timeout)). The tracker owns the attempt lifecycle:
//
//   kQueued --pop--> executes immediately (healthy node)  --> kSucceeded
//      |                 |                                      |
//      |                 +--> transient read failure --> kFailed, re-queued
//      |                 |       on the same node with exponential backoff
//      |                 +--> node stalled --> kRunning (parked) --deadline-->
//      |                         kTimedOut, re-dispatched elsewhere
//      +--> rival finished first --------------------------> kSuperseded
//
// Re-dispatches are capped at AttemptOptions::max_attempts per task; an
// exhausted task is abandoned (degraded, loudly) instead of hanging the run.
// Kill re-executions and speculative duplicates do not burn the cap. All
// choices are index-ordered and the clock is simulation-only, so runs are
// bit-identical at any engine thread count.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dfs/topology.hpp"
#include "mapred/engine.hpp"

namespace datanet::core {

struct AttemptOptions {
  // Ticks (executed read attempts) a Running attempt may sit on an
  // unresponsive node before it is declared timed out.
  std::uint64_t timeout_ticks = 8;
  // Cap-counted attempts per task (timeout + transient re-dispatches); the
  // task degrades when exhausted. Kill re-executions and speculative
  // duplicates are exempt.
  std::uint32_t max_attempts = 5;
  // Re-dispatch n waits min(backoff_base_ticks << (n-1), backoff_cap_ticks)
  // ticks before it becomes ready.
  std::uint64_t backoff_base_ticks = 1;
  std::uint64_t backoff_cap_ticks = 8;
  // A node is blacklisted for re-dispatch/speculation targeting after this
  // many of its attempts timed out.
  std::uint32_t blacklist_after_timeouts = 2;
  // Launch speculative duplicates of Running attempts when the run is
  // near-drained (open tasks <= threshold; 0 = one per cluster node).
  bool speculative = true;
  std::uint64_t speculation_drain_threshold = 0;

  // Throws std::invalid_argument on zero timeout/max_attempts/backoff base.
  void validate() const;
};

enum class AttemptState : std::uint8_t {
  kQueued,      // waiting for its ready tick
  kRunning,     // parked on an unresponsive node, deadline armed
  kSucceeded,   // produced the task's result (first result wins)
  kTimedOut,    // deadline passed; a successor attempt was considered
  kFailed,      // transient read failure or cancelled (node died)
  kSuperseded,  // a rival attempt of the same task finished first
};

struct TaskAttempt {
  std::size_t task = 0;
  std::uint32_t index = 0;  // per-task ordinal, 0 = original
  dfs::NodeId node = 0;
  std::uint64_t ready_at = 0;      // tick the attempt may execute
  std::uint64_t dispatched_at = 0;
  std::uint64_t deadline = 0;      // armed by mark_running
  bool speculative = false;
  bool counts_toward_cap = true;
  AttemptState state = AttemptState::kQueued;
};

class AttemptTracker {
 public:
  AttemptTracker(std::size_t num_tasks, AttemptOptions options);

  // ---- clock ----
  [[nodiscard]] std::uint64_t now() const noexcept { return now_; }
  void tick() noexcept { ++now_; }
  void advance_to(std::uint64_t t) noexcept { now_ = std::max(now_, t); }

  // Earliest tick at which a queued attempt becomes ready or a running
  // attempt times out; nullopt when no live attempt exists.
  [[nodiscard]] std::optional<std::uint64_t> next_event_tick() const;

  // ---- dispatch / execution ----
  // Create an attempt of `task` on `node`, ready `delay` ticks from now.
  // Returns the attempt id. `counts_toward_cap` = false for kill
  // re-executions and speculative duplicates.
  std::size_t dispatch(std::size_t task, dfs::NodeId node,
                       std::uint64_t delay = 0, bool speculative = false,
                       bool counts_toward_cap = true);

  // Next queued attempt with ready_at <= now, FIFO by (ready_at, id) — on a
  // clean run this degenerates to dispatch order. Skips attempts of closed
  // tasks. nullopt when nothing is ready.
  [[nodiscard]] std::optional<std::size_t> pop_ready();

  // Park `attempt` on its (unresponsive) node and arm the timeout deadline.
  void mark_running(std::size_t attempt);
  // First result wins: succeed `attempt`, close its task, supersede rivals.
  void complete(std::size_t attempt);
  // Transient read failure: the attempt is dead, the caller re-dispatches.
  void fail_transient(std::size_t attempt);
  // Cancel without stats (the attempt's node died; not the task's fault).
  void cancel(std::size_t attempt);
  // Running attempts whose deadline expired, in (deadline, id) order; each
  // is marked kTimedOut and counted. The caller re-dispatches or abandons.
  std::vector<std::size_t> expire_due();

  // ---- task bookkeeping ----
  // Retry cap exhausted: close the task as degraded (counted loudly).
  void abandon(std::size_t task);
  // Block unreadable from any replica: close the task (lost, not degraded).
  void drop(std::size_t task);
  // A kill discarded the task's completed output: reopen it for a fresh
  // cap-exempt dispatch.
  void reopen(std::size_t task);

  [[nodiscard]] bool task_open(std::size_t task) const;
  [[nodiscard]] std::uint64_t open_tasks() const noexcept { return open_; }
  [[nodiscard]] std::uint32_t capped_attempts(std::size_t task) const;
  [[nodiscard]] bool has_live_attempt(std::size_t task) const;
  [[nodiscard]] std::uint32_t live_attempts_of(std::size_t task) const;
  [[nodiscard]] bool speculated(std::size_t task) const;

  // ---- introspection ----
  [[nodiscard]] const TaskAttempt& attempt(std::size_t id) const {
    return attempts_[id];
  }
  // Live (queued or running) attempt ids, ascending.
  [[nodiscard]] std::vector<std::size_t> live_attempts() const;
  // Running attempt ids of open tasks, ascending (speculation candidates).
  [[nodiscard]] std::vector<std::size_t> running_attempts() const;

  [[nodiscard]] std::uint64_t backoff_delay(std::uint32_t redispatch_no) const;
  // The loop's attempt counters; timing_backups is the cost model's and
  // stays 0 here.
  [[nodiscard]] const mapred::AttemptCounters& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const AttemptOptions& options() const noexcept {
    return options_;
  }

 private:
  [[nodiscard]] bool live(const TaskAttempt& a) const {
    return (a.state == AttemptState::kQueued ||
            a.state == AttemptState::kRunning) &&
           task_open(a.task);
  }
  void close_task(std::size_t task);

  AttemptOptions options_;
  std::uint64_t now_ = 0;
  std::uint64_t open_ = 0;
  std::vector<TaskAttempt> attempts_;
  std::vector<std::uint32_t> task_attempts_;     // total per task
  std::vector<std::uint32_t> task_capped_;       // cap-counted per task
  std::vector<std::uint8_t> task_closed_;        // done/abandoned/dropped
  std::vector<std::uint8_t> task_speculated_;
  // Ready queue: (ready_at, attempt id) min-heap with lazy deletion.
  std::vector<std::pair<std::uint64_t, std::size_t>> ready_;
  mapred::AttemptCounters stats_;
};

}  // namespace datanet::core
