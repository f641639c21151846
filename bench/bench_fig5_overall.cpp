// Figure 5 reproduction on the 32-node / 256-block movie dataset:
//   (a) overall execution time of MovingAverage, WordCount, Histogram and
//       TopKSearch with and without DataNet;
//   (b) the target sub-dataset's size over the HDFS blocks;
//   (c) the filtered workload per cluster node under both schedulers.
//
// Paper shape: DataNet wins everywhere; improvements ~20% (MovingAverage),
// ~39% (WordCount), ~41% (Histogram), ~42% (TopK); (c) shows the locality
// baseline with several-fold node-to-node spread and DataNet nearly flat.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "apps/histogram.hpp"
#include "apps/moving_average.hpp"
#include "apps/topk_search.hpp"
#include "apps/word_count.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "datanet/selection_runtime.hpp"
#include "scheduler/datanet_sched.hpp"
#include "scheduler/locality.hpp"
#include "stats/descriptive.hpp"

int main() {
  using namespace datanet;
  benchutil::print_header(
      "Figure 5: overall comparison on a 32-node cluster",
      "DataNet improves MovingAverage/WordCount/Histogram/TopK by "
      "20/39.1/40.6/42 percent");

  auto cfg = benchutil::paper_config();
  const auto ds = core::make_movie_dataset(cfg, /*num_blocks=*/256,
                                           /*num_movies=*/2000);
  const auto& key = ds.hot_keys[0];
  const core::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});

  // ---- Fig. 5a ----
  struct JobSpec {
    const char* name;
    mapred::Job job;
  };
  std::vector<JobSpec> jobs;
  jobs.push_back({"MovingAverage", apps::make_moving_average_job(86400 * 7)});
  jobs.push_back({"WordCount", apps::make_word_count_job()});
  jobs.push_back({"Histogram", apps::make_word_histogram_job()});
  jobs.push_back({"TopKSearch", apps::make_topk_search_job(
                                    "a stunning film with great acting", 10)});

  common::TextTable overall(
      {"job", "without DataNet (s)", "with DataNet (s)", "improvement"});
  core::SelectionResult sel_base, sel_dn;
  for (auto& [name, job] : jobs) {
    scheduler::LocalityScheduler base(7);
    const auto without =
        core::run_end_to_end(*ds.dfs, ds.path, key, base, nullptr, job, cfg);
    scheduler::DataNetScheduler dn;
    const auto with =
        core::run_end_to_end(*ds.dfs, ds.path, key, dn, &net, job, cfg);
    overall.add_row(
        {name, common::fmt_double(without.total_seconds(), 1),
         common::fmt_double(with.total_seconds(), 1),
         common::fmt_percent(1.0 - with.total_seconds() / without.total_seconds())});
    sel_base = without.selection;  // identical across jobs; keep the last
    sel_dn = with.selection;
  }
  std::printf("\nFig 5a: overall execution (selection + analysis)\n%s\n",
              overall.to_string().c_str());

  // ---- Fig. 5b ----
  const auto dist = ds.truth->distribution(workload::subdataset_id(key));
  std::printf("Fig 5b: size of '%s' over %zu HDFS blocks (KiB, zero blocks "
              "omitted)\n",
              key.c_str(), dist.size());
  for (std::size_t b = 0; b < dist.size(); ++b) {
    if (dist[b] == 0) continue;
    std::printf("%5zu: %.1f\n", b, static_cast<double>(dist[b]) / 1024.0);
  }

  // ---- Fig. 5c ----
  std::printf("\nFig 5c: filtered workload per node (KiB)\n");
  std::printf("node  without  with\n");
  for (std::uint32_t n = 0; n < cfg.num_nodes; ++n) {
    std::printf("%4u  %7.1f  %7.1f\n", n,
                static_cast<double>(sel_base.node_filtered_bytes[n]) / 1024.0,
                static_cast<double>(sel_dn.node_filtered_bytes[n]) / 1024.0);
  }
  const auto summarize = [](const std::vector<std::uint64_t>& v) {
    std::vector<double> d(v.begin(), v.end());
    return stats::summarize(d);
  };
  const auto sb = summarize(sel_base.node_filtered_bytes);
  const auto sd = summarize(sel_dn.node_filtered_bytes);
  std::printf("\nwithout: max/mean=%.2f min/mean=%.2f cv=%.2f\n",
              sb.max_over_mean(), sb.min_over_mean(), sb.coeff_variation());
  std::printf("with:    max/mean=%.2f min/mean=%.2f cv=%.2f\n",
              sd.max_over_mean(), sd.min_over_mean(), sd.coeff_variation());

  // ---- selection filter kernel: key-prefix fast path vs full decode ----
  // Every selection run scans every candidate block through filter_lines;
  // the fast path only full-decodes lines whose key field already matches.
  {
    const auto blocks = ds.dfs->blocks_of(ds.path);
    std::uint64_t total_bytes = 0;
    for (const auto bid : blocks) total_bytes += ds.dfs->block(bid).size_bytes;
    constexpr int kReps = 5;
    const auto time_filter = [&](auto&& filter) {
      double best = 1e300;
      std::uint64_t kept = 0;
      for (int r = 0; r < kReps; ++r) {
        std::string out;
        kept = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (const auto bid : blocks) {
          out.clear();
          (void)filter(ds.dfs->read_block(bid), key, out);
          kept += out.size();
        }
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        best = std::min(best, dt.count());
      }
      return std::pair<double, std::uint64_t>{best, kept};
    };
    const auto [slow_s, slow_kept] = time_filter(core::filter_lines_decode_all);
    const auto [fast_s, fast_kept] =
        time_filter([](std::string_view data, const std::string& k,
                       std::string& out) { return core::filter_lines(data, k, out); });
    const double mib = static_cast<double>(total_bytes) / (1024.0 * 1024.0);
    std::printf("\nfilter kernel over %zu blocks (%.1f MiB, key '%s', best of "
                "%d):\n",
                blocks.size(), mib, key.c_str(), kReps);
    std::printf("  full decode   : %7.2f ms  %7.0f MiB/s\n", slow_s * 1e3,
                mib / slow_s);
    std::printf("  prefix + decode: %6.2f ms  %7.0f MiB/s  (%.2fx, identical "
                "output: %s)\n",
                fast_s * 1e3, mib / fast_s, slow_s / fast_s,
                fast_kept == slow_kept ? "yes" : "NO");
  }
  return 0;
}
