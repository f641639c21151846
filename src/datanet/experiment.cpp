#include "datanet/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "datanet/selection_runtime.hpp"
#include "workload/github_gen.hpp"
#include "workload/movie_gen.hpp"

namespace datanet::core {

namespace {

// Average encoded record size used to size generated datasets; measured from
// the generators' defaults (ts + key + rating + ~18 words).
constexpr double kAvgMovieRecordBytes = 150.0;
constexpr double kAvgGithubRecordBytes = 130.0;

// Shared DFS-construction half of the dataset builders: validate the
// cluster shape once, then stand up the MiniDfs the generators ingest into.
StoredDataset make_dataset_shell(const ExperimentConfig& cfg,
                                 std::string path) {
  cfg.validate();
  StoredDataset ds;
  ds.dfs = std::make_unique<dfs::MiniDfs>(
      dfs::ClusterTopology::flat(cfg.num_nodes), make_dfs_options(cfg));
  ds.path = std::move(path);
  return ds;
}

// Records needed so ~`num_blocks` blocks fill at `avg_record_bytes` each.
std::uint64_t records_for_blocks(const ExperimentConfig& cfg,
                                 std::uint64_t num_blocks,
                                 double avg_record_bytes) {
  return static_cast<std::uint64_t>(
      static_cast<double>(num_blocks * cfg.block_size) / avg_record_bytes);
}

}  // namespace

void ExperimentConfig::validate() const {
  if (num_nodes == 0) {
    throw std::invalid_argument("ExperimentConfig: num_nodes must be nonzero");
  }
  if (block_size == 0) {
    throw std::invalid_argument("ExperimentConfig: block_size must be nonzero");
  }
  if (slots_per_node == 0) {
    throw std::invalid_argument(
        "ExperimentConfig: slots_per_node must be nonzero");
  }
  if (replication == 0) {
    throw std::invalid_argument(
        "ExperimentConfig: replication must be nonzero");
  }
  if (replication > num_nodes) {
    throw std::invalid_argument(
        "ExperimentConfig: replication exceeds num_nodes");
  }
}

mapred::EngineOptions engine_options(const ExperimentConfig& cfg) {
  mapred::EngineOptions opt;
  opt.num_nodes = cfg.num_nodes;
  opt.slots_per_node = cfg.slots_per_node;
  opt.execution_threads = cfg.execution_threads;
  return opt;
}

dfs::DfsOptions make_dfs_options(const ExperimentConfig& cfg) {
  dfs::DfsOptions dopt;
  dopt.block_size = cfg.block_size;
  dopt.replication = cfg.replication;
  dopt.seed = cfg.seed;
  dopt.inline_repair = cfg.inline_repair;
  return dopt;
}

std::vector<std::string> ingest_movie_dataset(dfs::MiniDfs& dfs,
                                              const std::string& path,
                                              const ExperimentConfig& cfg,
                                              std::uint64_t num_blocks,
                                              std::uint64_t num_movies) {
  cfg.validate();
  workload::MovieGenOptions gopt;
  gopt.num_movies = num_movies;
  gopt.num_records = records_for_blocks(cfg, num_blocks, kAvgMovieRecordBytes);
  gopt.seed = cfg.seed * 7919 + 13;
  const workload::MovieLogGenerator gen(gopt);
  const auto records = gen.generate();
  workload::ingest(dfs, path, records);

  std::vector<std::string> hot_keys;
  for (std::uint64_t r = 0; r < std::min<std::uint64_t>(num_movies, 16); ++r) {
    hot_keys.push_back(gen.movie_key(r));
  }
  return hot_keys;
}

StoredDataset make_movie_dataset(const ExperimentConfig& cfg,
                                 std::uint64_t num_blocks,
                                 std::uint64_t num_movies) {
  StoredDataset ds = make_dataset_shell(cfg, "/data/movies.log");
  ds.hot_keys =
      ingest_movie_dataset(*ds.dfs, ds.path, cfg, num_blocks, num_movies);
  ds.truth = std::make_unique<workload::GroundTruth>(*ds.dfs, ds.path);
  return ds;
}

StoredDataset make_github_dataset(const ExperimentConfig& cfg,
                                  std::uint64_t num_blocks) {
  StoredDataset ds = make_dataset_shell(cfg, "/data/github_events.log");

  workload::GithubGenOptions gopt;
  gopt.num_records = records_for_blocks(cfg, num_blocks, kAvgGithubRecordBytes);
  gopt.seed = cfg.seed * 6271 + 5;
  const workload::GithubLogGenerator gen(gopt);
  workload::ingest(*ds.dfs, ds.path, gen.generate());

  ds.truth = std::make_unique<workload::GroundTruth>(*ds.dfs, ds.path);
  // The paper analyzes "IssueEvent"; IssuesEvent and PushEvent give extra
  // contrast (rare vs dominant type).
  ds.hot_keys = {"IssueEvent", "IssuesEvent", "PushEvent"};
  return ds;
}

mapred::JobReport run_analysis(const mapred::Job& job,
                               const SelectionResult& selection,
                               const ExperimentConfig& cfg) {
  // Each node materialized its filtered share as `slots_per_node` local
  // spill files during selection; the analysis runs one map task per spill,
  // so a node's map time is task_overhead + data_cost(bytes / slots) — the
  // structure behind the paper's Fig. 6 per-node map times. Splits break at
  // record boundaries.
  std::vector<mapred::InputSplit> splits;
  for (std::uint32_t n = 0; n < cfg.num_nodes; ++n) {
    for (const std::string_view chunk : mapred::split_at_record_boundaries(
             selection.node_local_data[n], cfg.slots_per_node)) {
      splits.push_back(
          mapred::InputSplit{.node = n, .data = chunk, .charged_bytes = 0});
    }
  }

  mapred::Job scaled = job;
  scaled.config.cost.time_scale = cfg.effective_time_scale();
  const mapred::Engine engine(engine_options(cfg));
  return engine.run(scaled, splits);
}

EndToEndResult run_end_to_end(const dfs::MiniDfs& dfs, const std::string& path,
                              const std::string& key,
                              scheduler::TaskScheduler& sched, const DataNet* net,
                              const mapred::Job& job,
                              const ExperimentConfig& cfg) {
  DirectReadPolicy read(dfs, cfg.remote_read_penalty);
  NoFaults faults;
  AnalyticBackend timing;
  EndToEndResult r{.selection = SelectionRuntime(read, faults, timing)
                                    .run(dfs, path, key, sched, net, cfg),
                   .analysis = {}};
  r.analysis = run_analysis(job, r.selection, cfg);
  return r;
}

}  // namespace datanet::core
