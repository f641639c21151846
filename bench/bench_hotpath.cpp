// Hot-path speed recovery bench: real-wall numbers for the
// optimizations stacked on the selection path —
//
//   1. kernel sweep    — filter_lines pinned to each available scan kernel
//                        (scalar memchr reference, AVX2) plus the
//                        decode-every-line reference, MB/s over the movie
//                        corpus; then scan_words, WordCount's tokenizer,
//                        pinned to each kernel, MB/s over the corpus's
//                        record payloads;
//   1b. stripe skip    — per kernel, the full-scan filter vs the
//                        stripe-skipping one over each key's candidate
//                        blocks (the fig5 dataset, its 16 hot keys and 4
//                        cold ones): MiB/s of candidate bytes, and the
//                        share of those bytes the skip still walks; then the
//                        stripe tables' bytes per block beside the
//                        ElasticMap's (Eq. 5);
//   2. copy vs zero-copy — the old per-task `std::string(block)` copy
//                        before filtering vs filtering the DFS-owned bytes
//                        in place;
//   3. thread scaling  — selection wall at 1/2/4/8 engine threads;
//   4. substrate       — the write/recover/setup kernels: crc32 MB/s next to
//                        a byte-wise reference, Zipf ns per draw next to a
//                        lower_bound reference, and make_movie_dataset ms.
//
// Wall times are host-dependent; every simulated figure and all report
// bytes are deterministic.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/simd_scan.hpp"
#include "elasticmap/stripe_table.hpp"
#include "scheduler/datanet_sched.hpp"
#include "stats/zipf.hpp"
#include "workload/record.hpp"

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

// One-table, byte-at-a-time CRC-32: the reference common::crc32 replaced.
std::uint32_t crc32_bytewise(std::string_view bytes) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = ~0u;
  for (const unsigned char c : bytes) crc = (crc >> 8) ^ table[(crc ^ c) & 0xffu];
  return ~crc;
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

  // ---- 1b. stripe skip -----------------------------------------------
  {
    std::vector<std::string> mix = ds.hot_keys;
    for (const char* cold :
         {"movie_00500", "movie_00900", "movie_01300", "movie_01700"}) {
      mix.emplace_back(cold);
    }
    struct Candidate {
      std::string_view data;
      const elasticmap::StripeTable* stripes;
    };
    std::vector<std::vector<Candidate>> candidates;
    std::uint64_t candidate_bytes = 0;
    for (const std::string& k : mix) {
      auto& list = candidates.emplace_back();
      const auto graph = net.scheduling_graph(k);
      for (const auto& v : graph.blocks()) {
        list.push_back({ds.dfs->read_block(v.block_id), v.stripes.get()});
        candidate_bytes += list.back().data.size();
      }
    }
    const double candidate_mib =
        static_cast<double>(candidate_bytes) / (1024.0 * 1024.0);
    std::printf(
        "\n[stripe skip] %zu keys (%zu hot, %zu cold), %.1f MiB of candidate "
        "blocks\n",
        mix.size(), ds.hot_keys.size(), mix.size() - ds.hot_keys.size(),
        candidate_mib);
    for (const auto kernel : kernels) {
      if (!common::scan_kernel_available(kernel)) {
        std::printf("  %-18s unavailable on this host/build\n",
                    common::scan_kernel_name(kernel));
        continue;
      }
      std::uint64_t full_out = 0, skip_out = 0, scanned = 0;
      const double full_secs = best_of(5, [&] {
        full_out = 0;
        std::string out;
        for (std::size_t i = 0; i < mix.size(); ++i) {
          for (const Candidate& c : candidates[i]) {
            out.clear();
            (void)core::filter_lines(c.data, mix[i], out, kernel);
            full_out += out.size();
          }
        }
      });
      const double skip_secs = best_of(5, [&] {
        skip_out = 0;
        scanned = 0;
        std::string out;
        for (std::size_t i = 0; i < mix.size(); ++i) {
          const std::uint64_t bits =
              elasticmap::stripe_bits(workload::subdataset_id(mix[i]));
          for (const Candidate& c : candidates[i]) {
            out.clear();
            (void)core::filter_lines(c.data, mix[i], out, c.stripes, bits,
                                     scanned, kernel);
            skip_out += out.size();
          }
        }
      });
      std::printf(
          "  %-18s full %8.1f MiB/s  skip %8.1f MiB/s  (%.2fx, scanned/"
          "candidate %.3f, output %s)%s\n",
          common::scan_kernel_name(kernel), candidate_mib / full_secs,
          candidate_mib / skip_secs, full_secs / skip_secs,
          static_cast<double>(scanned) / static_cast<double>(candidate_bytes),
          full_out == skip_out ? "equal" : "DIFFERS",
          kernel == common::active_scan_kernel() ? "  <- active" : "");
    }
    std::uint64_t table_bytes = 0;
    for (std::uint64_t b = 0; b < net.meta().num_blocks(); ++b) {
      table_bytes += net.meta().stripe_table(b)->memory_bytes();
    }
    const double blocks_n = static_cast<double>(net.meta().num_blocks());
    std::printf(
        "  stripe tables %.0f B/block (%.2f%% of the data), ElasticMap (Eq. 5) "
        "%.0f B/block\n",
        static_cast<double>(table_bytes) / blocks_n,
        100.0 * static_cast<double>(table_bytes) /
            static_cast<double>(corpus_bytes),
        static_cast<double>(net.meta().memory_bytes()) / blocks_n);
  }

  std::vector<std::string_view> payloads;
  std::uint64_t payload_bytes = 0;
  for (const dfs::BlockId b : blocks) {
    workload::for_each_record(ds.dfs->read_block(b),
                              [&](const workload::RecordView& r) {
                                payloads.push_back(r.payload);
                                payload_bytes += r.payload.size();
                              });
  }
  const double payload_mib =
      static_cast<double>(payload_bytes) / (1024.0 * 1024.0);
  std::printf("\n[scan_words kernel sweep] %.1f MiB of record payloads\n",
              payload_mib);
  for (const auto kernel : kernels) {
    if (!common::scan_kernel_available(kernel)) {
      std::printf("  %-18s unavailable on this host/build\n",
                  common::scan_kernel_name(kernel));
      continue;
    }
    std::uint64_t words = 0;
    std::vector<common::Word> out;
    std::string lowered;
    const double secs = best_of(5, [&] {
      words = 0;
      for (const std::string_view payload : payloads) {
        out.clear();
        common::scan_words(payload, out, lowered, kernel);
        words += out.size();
      }
    });
    std::printf("  %-18s %8.1f MiB/s  (%.4fs, %.1f ns/word, %llu words)%s\n",
                common::scan_kernel_name(kernel), payload_mib / secs, secs,
                secs * 1e9 / static_cast<double>(words),
                static_cast<unsigned long long>(words),
                kernel == common::active_scan_kernel() ? "  <- active" : "");
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

  // ---- 4. substrate kernels -------------------------------------------
  std::printf("\n[substrate kernels]\n");
  std::uint32_t fold = 0;
  std::uint32_t ref_fold = 0;
  const double crc_secs = best_of(5, [&] {
    fold = 0;
    for (const dfs::BlockId b : blocks) fold ^= common::crc32(ds.dfs->read_block(b));
  });
  const double crc_ref_secs = best_of(5, [&] {
    ref_fold = 0;
    for (const dfs::BlockId b : blocks) ref_fold ^= crc32_bytewise(ds.dfs->read_block(b));
  });
  std::printf("  crc32 slicing-by-8   %8.1f MiB/s\n", corpus_mib / crc_secs);
  std::printf("  crc32 byte-wise ref  %8.1f MiB/s  (%.2fx, sums %s)\n",
              corpus_mib / crc_ref_secs, crc_ref_secs / crc_secs,
              fold == ref_fold ? "match" : "DIFFER");

  // The text generator's shape: 2000 words, exponent 1.05.
  constexpr int kDraws = 4'000'000;
  const stats::ZipfSampler zipf(2000, 1.05);
  std::uint64_t rank_sum = 0;
  std::uint64_t ref_rank_sum = 0;
  const double zipf_secs = best_of(3, [&] {
    common::Rng rng(7);
    rank_sum = 0;
    for (int i = 0; i < kDraws; ++i) rank_sum += zipf.sample(rng);
  });
  const auto& cdf = zipf.cdf();
  const double zipf_ref_secs = best_of(3, [&] {
    common::Rng rng(7);
    ref_rank_sum = 0;
    for (int i = 0; i < kDraws; ++i) {
      ref_rank_sum += static_cast<std::uint64_t>(
          std::lower_bound(cdf.begin(), cdf.end(), rng.uniform()) - cdf.begin());
    }
  });
  std::printf("  zipf guide table     %8.1f ns/draw\n", zipf_secs * 1e9 / kDraws);
  std::printf("  zipf lower_bound ref %8.1f ns/draw  (%.2fx, ranks %s)\n",
              zipf_ref_secs * 1e9 / kDraws, zipf_ref_secs / zipf_secs,
              rank_sum == ref_rank_sum ? "match" : "DIFFER");

  const double build_secs =
      best_of(3, [&] { (void)core::make_movie_dataset(cfg, 256, 2000); });
  std::printf("  make_movie_dataset   %8.1f ms  (256 blocks, 2000 movies)\n",
              build_secs * 1e3);
  return 0;
}
