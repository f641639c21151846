#pragma once
// The MapReduce engine: executes a Job over input splits placed on cluster
// nodes. Real work happens on a thread pool; simulated time is computed
// deterministically from the cost model and the split->node placement, so a
// run's JobReport is bit-for-bit reproducible regardless of thread count.
//
// Timing model (matches the phase structure measured in Section V):
//   * map: each node runs its splits on `slots_per_node` slots in arrival
//     order; node map time = latest slot finish. Map phase = max over nodes.
//   * shuffle (paper's definition, Section V-A-3: "starts whenever a map
//     task is finished and ends when all map tasks have been executed"):
//     shuffle task r spans [first map task finish, map phase end] plus its
//     partition transfer — so an imbalanced map phase directly stretches
//     every shuffle task.
//   * reduce: per-reducer cost on its partition; reduce phase = max.
//
// Real execution is parallel end to end: map tasks emit pre-partitioned
// output (key hash computed once per pair and cached), and the per-partition
// group+reduce stage runs on the same thread pool as the map stage. All
// results and simulated timings are bit-identical at any thread count.
//
// Grouping is by hash, with one routine for the combiner and the reducer: a
// flat open-addressing table keyed by (partition_hash(key), key) collects
// each key's values as they arrive — a combiner job's map output is grouped
// while it is emitted — and only the distinct keys are sorted. Ordering
// contract: a combiner or reducer sees its keys in ascending
// (partition_hash(key), key) order, each with its values in arrival order.
// For a combiner that is the mapper's emission order within the task; for a
// reducer it is task order, then emission order (the mapper's, or the
// combiner's) within a task. That is exactly the call sequence a stable sort
// of the pairs by (hash, key) yields, so stateful reducers see the same
// input whatever the grouping method.

#include <cstdint>
#include <functional>
#include <map>
#include <string_view>
#include <vector>

#include "mapred/job.hpp"

namespace datanet::mapred {

// One map task: a chunk of input data resident on `node`.
struct InputSplit {
  std::uint32_t node = 0;
  std::string_view data;  // newline-separated encoded records; caller-owned
  // Bytes charged to the simulated clock; defaults to data.size() but can be
  // overridden (e.g. remote reads charged with a network penalty).
  std::uint64_t charged_bytes = 0;

  [[nodiscard]] std::uint64_t effective_bytes() const {
    return charged_bytes ? charged_bytes : data.size();
  }
};

struct TaskTiming {
  std::uint32_t node = 0;
  double start = 0.0;
  double finish = 0.0;
  [[nodiscard]] double duration() const { return finish - start; }
};

// Attempt-layer accounting (the JobReport JSON's "attempts" section).
// `attempts`..`degraded_tasks` come from the SelectionRuntime's attempt
// tracker (or, for event-sim runs, sim::ClusterSim's duplicate events);
// `timing_backups` counts the analytic cost model's accepted speculative
// backup placements (apply_speculative_backups below). Zero everywhere on a
// clean run.
struct AttemptCounters {
  std::uint64_t attempts = 0;            // dispatched, duplicates included
  std::uint64_t timeouts = 0;            // attempts whose deadline expired
  std::uint64_t transient_retries = 0;   // reads failed then retried (backoff)
  std::uint64_t redispatches = 0;        // cap-counted follow-up dispatches
  std::uint64_t speculative_launched = 0;
  std::uint64_t speculative_wins = 0;    // duplicates that beat the original
  std::uint64_t timing_backups = 0;      // analytic-model backup placements
  std::uint64_t degraded_tasks = 0;      // abandoned at the retry cap
};

// Background-healing counters exported by the ReplicationMonitor through the
// SelectionRuntime (zero when no monitor is wired in). mttr_ticks is the sum
// over healed blocks of (heal tick − first-observed tick) on the monitor's
// own tick clock — mean time to repair is mttr_ticks / healed_blocks.
struct RecoveryCounters {
  std::uint64_t healed_blocks = 0;
  std::uint64_t pending_repairs = 0;  // left unhealed when the run finished
  std::uint64_t mttr_ticks = 0;
  std::uint64_t monitor_ticks = 0;
  std::uint64_t scrubbed_replicas = 0;  // marked-corrupt copies dropped
  std::uint64_t unrepairable = 0;       // no healthy source / no target
};

struct JobReport {
  // Real output of the job (reduced key -> value), sorted by key.
  std::map<Key, Value> output;

  // Simulated per-task and per-node map timing.
  std::vector<TaskTiming> map_tasks;
  std::vector<double> node_map_seconds;   // per node: latest task finish
  double map_phase_seconds = 0.0;         // max over nodes
  double first_map_finish_seconds = 0.0;  // earliest task completion

  // Simulated shuffle/reduce timing (per reducer partition).
  std::vector<double> shuffle_task_seconds;
  std::vector<double> reduce_task_seconds;
  double shuffle_phase_seconds = 0.0;  // max shuffle task
  double reduce_phase_seconds = 0.0;   // max reduce task
  double total_seconds = 0.0;

  // Measured wall-clock time of the real execution (not the simulated
  // clock): the map stage, and the shuffle+reduce stage that follows the
  // map barrier. These depend on the host machine and execution_threads;
  // they exist for perf benches and are excluded from report_to_json so
  // serialized reports stay bit-for-bit reproducible.
  double wall_map_seconds = 0.0;
  double wall_shuffle_reduce_seconds = 0.0;

  // Fault accounting, filled by the fault-aware harness (zero on clean
  // runs): task re-executions plus failed checksum read attempts, blocks
  // with no healthy replica left, and whether the output may therefore be
  // incomplete. Degradation is observable, never silent.
  std::uint64_t retries = 0;
  std::uint64_t lost_blocks = 0;
  bool degraded = false;
  // Blocks left under-replicated when the run finished (dfs::fsck after a
  // faulted selection; kills strand copies until re-replication catches up).
  std::uint64_t under_replicated = 0;
  // Attempt/timeout/speculation counters (see AttemptCounters above).
  AttemptCounters attempts;
  // Background-healing counters (see RecoveryCounters above).
  RecoveryCounters recovery;

  // Counters.
  std::uint64_t input_records = 0;
  std::uint64_t input_bytes = 0;
  std::uint64_t map_output_pairs = 0;   // after combiner
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t skipped_lines = 0;
  // User-defined named counters (Emitter::count), merged across all map and
  // reduce tasks in deterministic (name-sorted) order.
  std::map<std::string, std::uint64_t> counters;
};

struct EngineOptions {
  std::uint32_t num_nodes = 1;
  std::uint32_t slots_per_node = 2;  // Marmot nodes are dual-processor
  // Worker threads for real execution (0 = hardware concurrency).
  std::uint32_t execution_threads = 0;
  // Relative processing speed per node (empty = homogeneous 1.0). A task's
  // simulated duration on node n is cost / node_speed[n].
  std::vector<double> node_speed;
  // Hadoop-style single-wave speculative execution: when the cluster is
  // otherwise idle, the straggler node's running tail task is duplicated on
  // the earliest idle node and the earlier copy wins. Affects simulated map
  // timing only (results are identical either way).
  bool speculative = false;
};

class Engine {
 public:
  explicit Engine(EngineOptions options);

  // Execute `job` over `splits`. Splits run as independent map tasks; the
  // i-th split's node must be < num_nodes.
  [[nodiscard]] JobReport run(const Job& job,
                              const std::vector<InputSplit>& splits) const;

 private:
  EngineOptions options_;
};

// Hadoop's single-wave speculative backup pass over simulated map timings,
// the ONE speculation-timing implementation shared by the engine cost model
// and (through core::AnalyticBackend, which enables EngineOptions::
// speculative whenever the SelectionRuntime's attempt layer launched
// duplicates) the selection phase. While one node finishes well after the
// rest, its last-running task gets a backup on the earliest idle node and
// the earlier copy wins; iterated until no backup would finish earlier.
// `backup_duration(task, node)` prices the duplicate. Mutates map_tasks /
// node_map_seconds in place and returns the number of accepted backups.
std::uint64_t apply_speculative_backups(
    std::vector<TaskTiming>& map_tasks, std::vector<double>& node_map_seconds,
    const std::function<double(std::size_t task, std::uint32_t node)>&
        backup_duration);

// The shuffle partitioner's key hash: a pair goes to reducer
// partition_hash(key) % num_reducers, and grouped keys are visited in
// ascending (partition_hash(key), key) order.
[[nodiscard]] std::uint64_t partition_hash(std::string_view key);

// Cut `data` (newline-separated records) into ~`pieces` contiguous chunks of
// roughly data.size()/pieces bytes, each extended to the next record
// boundary so no record straddles two chunks (Hadoop's line-record input
// split rule). Empty data yields no chunks; a single record (or pieces == 1)
// yields one chunk spanning all of it. The returned views alias `data`.
[[nodiscard]] std::vector<std::string_view> split_at_record_boundaries(
    std::string_view data, std::uint32_t pieces);

}  // namespace datanet::mapred
