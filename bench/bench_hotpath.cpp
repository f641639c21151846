// Hot-path speed recovery bench: real-wall numbers for the
// optimizations stacked on the selection path —
//
//   1. kernel sweep    — filter_lines pinned to each available scan kernel
//                        (scalar memchr reference, SSE2, AVX2) plus the
//                        decode-every-line reference, MB/s over the movie
//                        corpus;
//   2. copy vs zero-copy — the old per-task `std::string(block)` copy
//                        before filtering vs filtering the DFS-owned bytes
//                        in place;
//   3. thread scaling  — selection wall at 1/2/4/8 engine threads.
//
// Wall times are host-dependent; every simulated figure and all report
// bytes are deterministic. The machine-readable twin of this bench is the
// "hotpath" section of tools/bench_report (-> BENCH_PR6.json).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/simd_scan.hpp"
#include "scheduler/datanet_sched.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Best-of-N wall time for `fn`; best-of smooths scheduler noise on shared
// hosts better than a mean does.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

}  // namespace

int main() {
  using namespace datanet;
  benchutil::print_header(
      "Hot-path speed recovery: SIMD scan, zero-copy, thread sweep",
      "selection wall time tracks the scan kernel");

  const auto cfg = benchutil::paper_config();
  auto ds = core::make_movie_dataset(cfg, 256, 2000);
  const std::string key = ds.hot_keys[0];
  const core::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
  const auto& blocks = ds.dfs->blocks_of(ds.path);

  std::uint64_t corpus_bytes = 0;
  for (const dfs::BlockId b : blocks) corpus_bytes += ds.dfs->read_block(b).size();
  const double corpus_mib = static_cast<double>(corpus_bytes) / (1024.0 * 1024.0);

  // ---- 1. kernel sweep ------------------------------------------------
  std::printf("\n[filter_lines kernel sweep] corpus %.1f MiB, key \"%s\"\n",
              corpus_mib, key.c_str());
  const common::ScanKernel kernels[] = {common::ScanKernel::kScalar,
                                        common::ScanKernel::kSse2,
                                        common::ScanKernel::kAvx2};
  for (const auto kernel : kernels) {
    if (!common::scan_kernel_available(kernel)) {
      std::printf("  %-18s unavailable on this host/build\n",
                  common::scan_kernel_name(kernel));
      continue;
    }
    std::uint64_t matched = 0;
    const double secs = best_of(5, [&] {
      matched = 0;
      std::string out;
      for (const dfs::BlockId b : blocks) {
        out.clear();
        (void)core::filter_lines(ds.dfs->read_block(b), key, out, kernel);
        matched += out.size();
      }
    });
    std::printf("  %-18s %8.1f MiB/s  (%.4fs, %llu bytes matched)%s\n",
                common::scan_kernel_name(kernel), corpus_mib / secs, secs,
                static_cast<unsigned long long>(matched),
                kernel == common::active_scan_kernel() ? "  <- active" : "");
  }
  {
    std::uint64_t matched = 0;
    const double secs = best_of(5, [&] {
      matched = 0;
      std::string out;
      for (const dfs::BlockId b : blocks) {
        out.clear();
        (void)core::filter_lines_decode_all(ds.dfs->read_block(b), key, out);
        matched += out.size();
      }
    });
    std::printf("  %-18s %8.1f MiB/s  (%.4fs, %llu bytes matched)\n",
                "decode-all ref", corpus_mib / secs, secs,
                static_cast<unsigned long long>(matched));
  }

  // ---- 2. copy vs zero-copy -------------------------------------------
  std::printf("\n[block read: copy vs zero-copy]\n");
  const double copy_secs = best_of(5, [&] {
    std::string out;
    for (const dfs::BlockId b : blocks) {
      out.clear();
      const std::string owned(ds.dfs->read_block(b));  // the pre-PR6 copy
      (void)core::filter_lines(owned, key, out);
    }
  });
  const double zero_secs = best_of(5, [&] {
    std::string out;
    for (const dfs::BlockId b : blocks) {
      out.clear();
      (void)core::filter_lines(ds.dfs->read_block(b), key, out);
    }
  });
  std::printf("  with per-task copy   %.4fs\n", copy_secs);
  std::printf("  zero-copy view       %.4fs   (%.2fx)\n", zero_secs,
              copy_secs / zero_secs);

  // ---- 3. thread scaling ----------------------------------------------
  std::printf("\n[selection wall vs engine threads]\n");
  scheduler::DataNetScheduler sched;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    auto tcfg = cfg;
    tcfg.execution_threads = threads;
    const double secs = best_of(3, [&] {
      (void)benchutil::run_selection(*ds.dfs, ds.path, key, sched, &net, tcfg);
    });
    std::printf("  threads=%u  %.4fs\n", threads, secs);
  }
  return 0;
}
