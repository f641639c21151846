#include "common/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <vector>

namespace datanet::common {
namespace {

// One parallel loop, published by its caller from the caller's stack.
struct Loop {
  std::size_t n;
  std::size_t grain;
  void (*body)(void*, std::size_t, std::size_t);
  void* ctx;
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;  // first exception a worker's body threw

  // Claim and run chunks until the range is exhausted or a body throws;
  // a throw also ends everyone else's claims.
  std::exception_ptr drain() noexcept {
    try {
      std::size_t b;
      while ((b = next.fetch_add(grain, std::memory_order_relaxed)) < n) {
        body(ctx, b, std::min(n, b + grain));
      }
      return nullptr;
    } catch (...) {
      next.store(n, std::memory_order_relaxed);
      return std::current_exception();
    }
  }
};

// The process-wide pool: one worker per hardware thread, one loop at a time.
struct Pool {
  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  Loop* loop = nullptr;    // the published loop, or null
  std::size_t seats = 0;   // workers that may still join `loop`
  std::size_t joined = 0;  // workers inside a loop right now
  bool busy = false;       // a caller owns the pool
  bool stop = false;
  std::vector<std::thread> workers;

  Pool() : workers(resolve_thread_count(0)) {
    for (auto& t : workers) t = std::thread([this] { work(); });
  }

  ~Pool() {
    {
      std::lock_guard lk(mu);
      stop = true;
    }
    cv_work.notify_all();
    for (auto& t : workers) t.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  void work() {
    std::unique_lock lk(mu);
    for (;;) {
      cv_work.wait(lk, [this] { return stop || seats > 0; });
      if (stop) return;
      Loop& l = *loop;
      --seats;
      ++joined;
      lk.unlock();
      std::exception_ptr error = l.drain();
      lk.lock();
      if (error && !l.error) l.error = std::move(error);
      if (--joined == 0 && loop == nullptr) cv_done.notify_one();
    }
  }
};

}  // namespace

void run_loop(std::size_t width, std::size_t n, std::size_t grain,
              void (*body)(void*, std::size_t, std::size_t), void* ctx) {
  static Pool pool;
  Loop loop{.n = n, .grain = grain, .body = body, .ctx = ctx};
  std::unique_lock lk(pool.mu);
  if (pool.busy) {
    lk.unlock();
    if (std::exception_ptr error = loop.drain()) std::rethrow_exception(error);
    return;
  }
  pool.busy = true;
  pool.loop = &loop;
  const std::size_t chunks = (n + grain - 1) / grain;
  const std::size_t seats = pool.seats =
      std::min({width, chunks, pool.workers.size() + 1}) - 1;
  lk.unlock();
  for (std::size_t i = 0; i < seats; ++i) pool.cv_work.notify_one();

  std::exception_ptr error = loop.drain();

  // Close the loop to latecomers, then wait only for the workers that joined.
  lk.lock();
  pool.loop = nullptr;
  pool.seats = 0;
  pool.cv_done.wait(lk, [] { return pool.joined == 0; });
  pool.busy = false;
  lk.unlock();
  if (!error) error = std::move(loop.error);
  if (error) std::rethrow_exception(error);
}

}  // namespace datanet::common
