#pragma once
// Fork-join parallel loops on one process-wide pool, built on first use with
// one worker per hardware thread. The MapReduce engine, the selection
// runtime's filter stage and the ElasticMap build run their real work here;
// all *simulated* timing stays deterministic because task assignment and
// cost accounting are computed before execution (see mapred::Engine).
//
// Contract: the caller participates, claiming chunks alongside up to
// `threads - 1` workers with one atomic fetch_add per claim. The pool runs
// one loop at a time; a call that finds it busy (a concurrent caller, or a
// parallel_for nested inside a body) runs its loop alone on the caller, so
// nothing deadlocks and every index still runs once. No worker outlives the
// call inside the loop, so `fn` may live on the caller's stack. An exception
// from `fn` on any thread ends further claims and is rethrown on the caller
// once every worker that joined has left.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <thread>
#include <type_traits>

namespace datanet::common {

// Thread count for a requested one: 0 means one per hardware thread (at
// least one).
[[nodiscard]] inline std::size_t resolve_thread_count(std::size_t requested) {
  return requested ? requested
                   : std::max<std::size_t>(
                         1, std::thread::hardware_concurrency());
}

// The non-template half of parallel_for: runs body(ctx, begin, end) over
// [0, n) in chunks of `grain` on the caller and up to `width - 1` pool
// workers, or alone on the caller when the pool is busy.
void run_loop(std::size_t width, std::size_t n, std::size_t grain,
              void (*body)(void* ctx, std::size_t begin, std::size_t end),
              void* ctx);

// Run fn(i) for every i in [0, n) on up to `threads` threads (0 = one per
// hardware thread) and return when all have run. Indices are claimed in
// contiguous chunks of `grain`; grain == 0 picks a chunk size that yields a
// few chunks per thread for load balancing, grain == 1 claims one index at
// a time. A loop with one thread or one chunk runs inline on the caller.
template <typename Fn>
void parallel_for(std::size_t threads, std::size_t n, Fn&& fn,
                  std::size_t grain = 0) {
  if (n == 0) return;
  const std::size_t width = resolve_thread_count(threads);
  if (grain == 0) {
    const std::size_t target_chunks = 4 * width;
    grain = std::max<std::size_t>(1, (n + target_chunks - 1) / target_chunks);
  }
  if (width <= 1 || n <= grain) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  using F = std::remove_reference_t<Fn>;
  run_loop(
      width, n, grain,
      [](void* ctx, std::size_t begin, std::size_t end) {
        F& f = *static_cast<F*>(ctx);
        for (std::size_t i = begin; i < end; ++i) f(i);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
}

}  // namespace datanet::common
