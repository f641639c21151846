#pragma once
// Fixed-size thread pool. The MapReduce engine parallelizes real task
// execution on it; all *simulated* timing stays deterministic because task
// assignment and cost accounting are computed before execution (see
// mapred::Engine).

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace datanet::common {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueue a task. Tasks must not throw; exceptions terminate (by design —
  // worker tasks in this codebase report errors through their results).
  void submit(std::function<void()> task);

  // Block until every submitted task has finished.
  void wait_idle();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

// Worker count for a requested thread count: 0 means one per hardware
// thread (at least one).
[[nodiscard]] inline std::size_t resolve_thread_count(std::size_t requested) {
  return requested ? requested
                   : std::max<std::size_t>(
                         1, std::thread::hardware_concurrency());
}

// Run fn(i) for i in [0, n) across the pool and wait for completion.
// Indices are submitted in contiguous chunks of `grain` (one closure per
// chunk, not per index), so fine-grained loops don't pay one queue round
// trip per element. grain == 0 picks a chunk size that yields a few chunks
// per worker for load balancing; grain == 1 recovers per-index submission.
// When the whole range fits in one chunk — or the pool has a single worker,
// so no two chunks could ever overlap — there is nothing to balance, and the
// loop runs inline on the caller: no queue round trips, no wakeups, no wait.
template <typename Fn>
void parallel_for(ThreadPool& pool, std::size_t n, Fn&& fn,
                  std::size_t grain = 0) {
  if (n == 0) return;
  if (grain == 0) {
    const std::size_t target_chunks = 4 * pool.size();
    grain = std::max<std::size_t>(1, (n + target_chunks - 1) / target_chunks);
  }
  if (n <= grain || pool.size() <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  for (std::size_t begin = 0; begin < n; begin += grain) {
    const std::size_t end = std::min(n, begin + grain);
    pool.submit([&fn, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    });
  }
  pool.wait_idle();
}

}  // namespace datanet::common
