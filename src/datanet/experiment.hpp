#pragma once
// Shared experiment harness reproducing the paper's evaluation pipeline
// (Section V-A): (1) a selection phase that filters the target sub-dataset
// out of the stored blocks and materializes it node-locally, scheduled
// either by the Hadoop locality baseline or by DataNet's Algorithm 1;
// (2) analysis jobs (MovingAverage / WordCount / Histogram / TopK) over the
// node-local filtered data. Every bench binary builds on these entry points.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datanet/datanet.hpp"
#include "dfs/fault_injector.hpp"
#include "mapred/engine.hpp"
#include "scheduler/scheduler.hpp"
#include "workload/dataset.hpp"

namespace datanet::core {

struct ExperimentConfig {
  std::uint32_t num_nodes = 32;
  std::uint64_t block_size = 256 * 1024;  // scaled stand-in for 64 MiB
  std::uint32_t replication = 3;
  std::uint32_t slots_per_node = 2;
  std::uint64_t seed = 42;
  // Simulated-time scale so one scaled block costs what a 64 MiB block
  // would; 0 = derive as 64 MiB / block_size.
  double time_scale = 0.0;
  // Extra simulated read cost multiplier for non-local map tasks.
  double remote_read_penalty = 0.5;
  // Worker threads for the engine's real execution (0 = hardware
  // concurrency). Reports are bit-identical for any value.
  std::uint32_t execution_threads = 0;
  // Forwarded to DfsOptions::inline_repair: false defers re-replication to a
  // background dfs::ReplicationMonitor instead of repairing inline at fault
  // time (see SelectionRuntime::with_replication_monitor).
  bool inline_repair = true;

  [[nodiscard]] double effective_time_scale() const {
    return time_scale > 0.0
               ? time_scale
               : static_cast<double>(64ull << 20) / static_cast<double>(block_size);
  }

  // Throws std::invalid_argument on a configuration no cluster can satisfy:
  // zero nodes/block size/slots/replication, or replication > nodes. Called
  // by the dataset builders and SelectionRuntime::run before any work.
  void validate() const;
};

// A generated-and-ingested dataset plus its oracle.
struct StoredDataset {
  std::unique_ptr<dfs::MiniDfs> dfs;
  std::string path;
  std::unique_ptr<workload::GroundTruth> truth;
  std::vector<std::string> hot_keys;  // interesting sub-dataset keys, hottest first
};

// The DfsOptions a dataset builder derives from an ExperimentConfig —
// exposed so callers hosting their own DFS (the sharded dfs::MetaPlane)
// build shards placement-identical to make_movie_dataset's MiniDfs.
[[nodiscard]] dfs::DfsOptions make_dfs_options(const ExperimentConfig& cfg);

// The mapred::EngineOptions for cfg's cluster shape (nodes, slots per node,
// execution threads) — shared by run_analysis and AnalyticBackend's pricing.
[[nodiscard]] mapred::EngineOptions engine_options(const ExperimentConfig& cfg);

// Generation + ingestion half of make_movie_dataset, against a DFS the
// caller owns; returns the hot keys, hottest first. Byte-identical records
// and hot keys to make_movie_dataset with the same (cfg, num_blocks,
// num_movies): ingesting into a fresh MiniDfs built from make_dfs_options(cfg)
// reproduces its placement exactly. Builds no ground-truth oracle.
std::vector<std::string> ingest_movie_dataset(dfs::MiniDfs& dfs,
                                              const std::string& path,
                                              const ExperimentConfig& cfg,
                                              std::uint64_t num_blocks = 256,
                                              std::uint64_t num_movies = 2000);

// Build the paper's movie dataset: ~`num_blocks` blocks of chronologically
// stored review logs (Section V-A's 256-block MovieLens-shaped data).
[[nodiscard]] StoredDataset make_movie_dataset(const ExperimentConfig& cfg,
                                               std::uint64_t num_blocks = 256,
                                               std::uint64_t num_movies = 2000);

// Build the GitHub event-log dataset of Section V-A-4 (keys = event types).
[[nodiscard]] StoredDataset make_github_dataset(const ExperimentConfig& cfg,
                                                std::uint64_t num_blocks = 128);

// ---- Phase 1: sub-dataset selection ----

struct SelectionResult {
  scheduler::AssignmentRecord assignment;   // who processed which block
  std::vector<std::string> node_local_data; // filtered records per node
  std::vector<std::uint64_t> node_filtered_bytes;  // actual |s| per node
  mapred::JobReport report;                 // simulated selection-phase timing
  std::uint64_t blocks_scanned = 0;         // candidate blocks actually read
  // Bytes the filter walked: the read blocks' bytes minus the stripes their
  // tables let it skip (wall-clock work only; the report charges blocks).
  std::uint64_t scanned_bytes = 0;
  // Candidate blocks that could not be read from any replica (faulted runs
  // only; report.lost_blocks holds the count, report.retries the attempts).
  std::vector<dfs::BlockId> lost_block_ids;
};

// Selection is executed by core::SelectionRuntime
// (datanet/selection_runtime.hpp): compose a ReplicaReadPolicy
// (DirectReadPolicy for the clean path, ChecksumRetryReadPolicy for the
// Hadoop datanode path), a FaultPolicy (NoFaults, or InjectedFaults over a
// dfs::FaultInjector plan: kill / corrupt / slow / stall / transient-read)
// and a TimingBackend (AnalyticBackend, or sim::EventSimBackend), then call
// runtime.run(dfs, path, key, sched, net, cfg). The former run_selection /
// run_selection_faulted shims are gone; benches use benchutil::run_selection.

// ---- Phase 2: analysis over the filtered, node-local sub-dataset ----

// Runs `job` over the node-local data of `selection`, splitting each node's
// data into ~`splits_per_node_slot * slots` map tasks. Cost model time_scale
// is overridden from cfg.
[[nodiscard]] mapred::JobReport run_analysis(const mapred::Job& job,
                                             const SelectionResult& selection,
                                             const ExperimentConfig& cfg);

// Convenience: selection + analysis, returning (selection, analysis) reports.
struct EndToEndResult {
  SelectionResult selection;
  mapred::JobReport analysis;
  [[nodiscard]] double total_seconds() const {
    return selection.report.total_seconds + analysis.total_seconds;
  }
};

[[nodiscard]] EndToEndResult run_end_to_end(const dfs::MiniDfs& dfs,
                                            const std::string& path,
                                            const std::string& key,
                                            scheduler::TaskScheduler& sched,
                                            const DataNet* net,
                                            const mapred::Job& job,
                                            const ExperimentConfig& cfg);

}  // namespace datanet::core
