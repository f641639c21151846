#include "datanet/attempt_tracker.hpp"

#include <algorithm>
#include <stdexcept>

namespace datanet::core {

namespace {

// Min-heap comparator over (ready_at, id): std::push_heap builds a max-heap,
// so the comparison is inverted. Ties break to the lower attempt id — the
// deterministic FIFO that makes clean runs pop in dispatch order.
struct ReadyLater {
  bool operator()(const std::pair<std::uint64_t, std::size_t>& a,
                  const std::pair<std::uint64_t, std::size_t>& b) const {
    return a.first != b.first ? a.first > b.first : a.second > b.second;
  }
};

}  // namespace

void AttemptOptions::validate() const {
  if (timeout_ticks == 0) {
    throw std::invalid_argument("AttemptOptions: timeout_ticks must be > 0");
  }
  if (max_attempts == 0) {
    throw std::invalid_argument("AttemptOptions: max_attempts must be > 0");
  }
  if (backoff_base_ticks == 0) {
    throw std::invalid_argument("AttemptOptions: backoff_base must be > 0");
  }
  if (backoff_cap_ticks < backoff_base_ticks) {
    throw std::invalid_argument("AttemptOptions: backoff cap < base");
  }
}

AttemptTracker::AttemptTracker(std::size_t num_tasks, AttemptOptions options)
    : options_(options), open_(num_tasks) {
  options_.validate();
  task_attempts_.assign(num_tasks, 0);
  task_capped_.assign(num_tasks, 0);
  task_closed_.assign(num_tasks, 0);
  task_speculated_.assign(num_tasks, 0);
}

std::optional<std::uint64_t> AttemptTracker::next_event_tick() const {
  std::optional<std::uint64_t> best;
  for (const auto& a : attempts_) {
    if (!live(a)) continue;
    const std::uint64_t t =
        a.state == AttemptState::kQueued ? a.ready_at : a.deadline;
    if (!best || t < *best) best = t;
  }
  return best;
}

std::size_t AttemptTracker::dispatch(std::size_t task, dfs::NodeId node,
                                     std::uint64_t delay, bool speculative,
                                     bool counts_toward_cap) {
  if (task >= task_attempts_.size()) {
    throw std::invalid_argument("AttemptTracker: bad task id");
  }
  TaskAttempt a;
  a.task = task;
  a.index = task_attempts_[task]++;
  a.node = node;
  a.dispatched_at = now_;
  a.ready_at = now_ + delay;
  a.speculative = speculative;
  a.counts_toward_cap = counts_toward_cap;
  const std::size_t id = attempts_.size();
  attempts_.push_back(a);
  ready_.emplace_back(a.ready_at, id);
  std::push_heap(ready_.begin(), ready_.end(), ReadyLater{});
  ++stats_.attempts;
  if (speculative) {
    task_speculated_[task] = 1;
    ++stats_.speculative_launched;
  }
  if (counts_toward_cap) {
    if (task_capped_[task]++ > 0) ++stats_.redispatches;
  }
  return id;
}

std::optional<std::size_t> AttemptTracker::pop_ready() {
  while (!ready_.empty() && ready_.front().first <= now_) {
    std::pop_heap(ready_.begin(), ready_.end(), ReadyLater{});
    const std::size_t id = ready_.back().second;
    ready_.pop_back();
    if (attempts_[id].state == AttemptState::kQueued &&
        task_open(attempts_[id].task)) {
      return id;
    }
    // Stale entry (superseded / cancelled / closed task): drop and continue.
  }
  return std::nullopt;
}

void AttemptTracker::mark_running(std::size_t attempt) {
  TaskAttempt& a = attempts_[attempt];
  a.state = AttemptState::kRunning;
  a.deadline = now_ + options_.timeout_ticks;
}

void AttemptTracker::complete(std::size_t attempt) {
  TaskAttempt& a = attempts_[attempt];
  a.state = AttemptState::kSucceeded;
  if (a.speculative) ++stats_.speculative_wins;
  close_task(a.task);
}

void AttemptTracker::fail_transient(std::size_t attempt) {
  attempts_[attempt].state = AttemptState::kFailed;
  ++stats_.transient_retries;
}

void AttemptTracker::cancel(std::size_t attempt) {
  attempts_[attempt].state = AttemptState::kFailed;
}

std::vector<std::size_t> AttemptTracker::expire_due() {
  std::vector<std::size_t> due;
  for (std::size_t id = 0; id < attempts_.size(); ++id) {
    const TaskAttempt& a = attempts_[id];
    if (a.state == AttemptState::kRunning && task_open(a.task) &&
        a.deadline <= now_) {
      due.push_back(id);
    }
  }
  std::sort(due.begin(), due.end(), [&](std::size_t x, std::size_t y) {
    if (attempts_[x].deadline != attempts_[y].deadline) {
      return attempts_[x].deadline < attempts_[y].deadline;
    }
    return x < y;
  });
  for (const std::size_t id : due) {
    attempts_[id].state = AttemptState::kTimedOut;
    ++stats_.timeouts;
  }
  return due;
}

void AttemptTracker::abandon(std::size_t task) {
  if (!task_open(task)) return;
  ++stats_.degraded_tasks;
  close_task(task);
}

void AttemptTracker::drop(std::size_t task) {
  if (!task_open(task)) return;
  close_task(task);
}

void AttemptTracker::reopen(std::size_t task) {
  if (task_open(task)) return;
  task_closed_[task] = 0;
  ++open_;
}

bool AttemptTracker::task_open(std::size_t task) const {
  return task_closed_[task] == 0;
}

std::uint32_t AttemptTracker::capped_attempts(std::size_t task) const {
  return task_capped_[task];
}

bool AttemptTracker::has_live_attempt(std::size_t task) const {
  return live_attempts_of(task) > 0;
}

std::uint32_t AttemptTracker::live_attempts_of(std::size_t task) const {
  std::uint32_t n = 0;
  for (const auto& a : attempts_) {
    if (a.task == task && live(a)) ++n;
  }
  return n;
}

bool AttemptTracker::speculated(std::size_t task) const {
  return task_speculated_[task] != 0;
}

std::vector<std::size_t> AttemptTracker::live_attempts() const {
  std::vector<std::size_t> out;
  for (std::size_t id = 0; id < attempts_.size(); ++id) {
    if (live(attempts_[id])) out.push_back(id);
  }
  return out;
}

std::vector<std::size_t> AttemptTracker::running_attempts() const {
  std::vector<std::size_t> out;
  for (std::size_t id = 0; id < attempts_.size(); ++id) {
    if (attempts_[id].state == AttemptState::kRunning &&
        task_open(attempts_[id].task)) {
      out.push_back(id);
    }
  }
  return out;
}

std::uint64_t AttemptTracker::backoff_delay(std::uint32_t redispatch_no) const {
  if (redispatch_no == 0) return 0;
  const std::uint32_t shift =
      std::min<std::uint32_t>(redispatch_no - 1, 63);
  const std::uint64_t base = options_.backoff_base_ticks;
  // Saturate instead of shifting into overflow.
  if (shift >= 64 || base > (options_.backoff_cap_ticks >> shift)) {
    return options_.backoff_cap_ticks;
  }
  return std::min(base << shift, options_.backoff_cap_ticks);
}

void AttemptTracker::close_task(std::size_t task) {
  if (task_closed_[task]) return;
  task_closed_[task] = 1;
  --open_;
  // Rivals of the closed task are superseded — first result wins. Their
  // stale ready-queue entries fall out lazily in pop_ready().
  for (auto& a : attempts_) {
    if (a.task == task && (a.state == AttemptState::kQueued ||
                           a.state == AttemptState::kRunning)) {
      a.state = AttemptState::kSuperseded;
    }
  }
}

}  // namespace datanet::core
