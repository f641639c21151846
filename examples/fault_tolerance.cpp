// Operating through failures: a cluster loses nodes mid-life, the NameNode
// re-replicates, fsck verifies health, and sub-dataset analyses keep working
// with the same meta-data. Exercises the fault-handling substrate end-to-end
// the way an operator would.

#include <cstdio>

#include "apps/word_count.hpp"
#include "datanet/datanet.hpp"
#include "datanet/experiment.hpp"
#include "dfs/fsck.hpp"
#include "scheduler/datanet_sched.hpp"
#include "stats/descriptive.hpp"

int main() {
  using namespace datanet;

  core::ExperimentConfig cfg;
  cfg.num_nodes = 16;
  cfg.block_size = 64 * 1024;
  cfg.seed = 13;
  auto ds = core::make_movie_dataset(cfg, /*num_blocks=*/96, /*num_movies=*/600);
  const auto& key = ds.hot_keys[0];

  const auto report_health = [&](const char* label) {
    const auto r = dfs::fsck(*ds.dfs);
    std::printf("%-28s blocks=%llu healthy=%llu under=%llu missing=%llu "
                "balance cv=%.3f\n",
                label, static_cast<unsigned long long>(r.total_blocks),
                static_cast<unsigned long long>(r.healthy_blocks),
                static_cast<unsigned long long>(r.under_replicated),
                static_cast<unsigned long long>(r.missing_blocks),
                r.replica_balance_cv);
    return r;
  };

  report_health("initial:");

  // Build the meta-data before anything goes wrong.
  const core::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
  scheduler::DataNetScheduler dn0;
  const auto before =
      core::run_end_to_end(*ds.dfs, ds.path, key, dn0, &net,
                           apps::make_word_count_job(), cfg);
  std::printf("analysis before failures: %.1f s, %zu output keys\n\n",
              before.total_seconds(), before.analysis.output.size());

  // Two nodes die. The NameNode re-replicates from surviving copies.
  for (const dfs::NodeId dead : {3u, 11u}) {
    const auto lost = ds.dfs->decommission(dead);
    std::printf("node %u decommissioned (%zu blocks lost)\n", dead, lost.size());
  }
  const auto after_failures = report_health("after failures:");
  if (!after_failures.healthy()) {
    std::printf("cluster unhealthy — aborting\n");
    return 1;
  }

  // The same meta-data still schedules correctly: weights are per-block and
  // placement comes from the (repaired) replica map at scheduling time.
  scheduler::DataNetScheduler dn1;
  const auto after = core::run_end_to_end(*ds.dfs, ds.path, key, dn1, &net,
                                          apps::make_word_count_job(), cfg);
  std::printf("\nanalysis after failures: %.1f s, %zu output keys\n",
              after.total_seconds(), after.analysis.output.size());
  std::printf("output identical to pre-failure run: %s\n",
              after.analysis.output == before.analysis.output ? "yes" : "NO");
  return 0;
}
