#pragma once
// The MapReduce engine: executes a Job over input splits placed on cluster
// nodes. Real work runs as fork-join loops on the process-wide pool
// (common::parallel_for); simulated time is computed deterministically from
// the cost model and the split->node placement, so a run's JobReport is
// bit-for-bit reproducible regardless of thread count.
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
// group+reduce stage is a second parallel_for: the caller takes tasks beside
// the pool workers (or alone, if another loop holds the pool), and no worker
// is left inside a stage when it returns. All results and simulated timings
// are bit-identical at any thread count.
//
// A job that folds its map output by key (WordCount's per-word counts)
// does so in its mapper, e.g. through a SumTable (sum_table.hpp); the
// engine partitions what the mapper emits, pair by pair. Reduce-side
// grouping is by hash: KeyIndex (sum_table.hpp), keyed by
// (partition_hash(key), key), collects each key's values as they arrive,
// and only the distinct keys are sorted. Ordering contract: a reducer sees
// its keys in ascending (partition_hash(key), key) order, each with its
// values in arrival order: task order, then the mapper's emission order
// within a task. That is exactly the call sequence a stable sort of the
// pairs by (hash, key) yields, so stateful reducers see the same input
// whatever the grouping method.
//
// Ownership (job.hpp): keys and values are std::string_views, and a view
// passed to emit lives only through that call. Each map task copies each
// pair it partitions, key and value, into its own arena, which lives until
// run() returns. The reduce stage groups views into those arenas and copies
// nothing. A reducer's views live until its reduce() returns; what it emits
// is copied into JobReport::output's strings.

#include <cstdint>
#include <functional>
#include <map>
#include <string_view>
#include <vector>

#include "mapred/job.hpp"

namespace datanet::mapred {

// What the selection's one scan over a split counted (core::filter_lines):
// the record census of every line, plus the records of the selected key.
// core::AnalyticBackend prices the selection report from it without
// decoding the split again; Engine::run ignores it and counts for itself.
struct SplitCensus {
  std::uint64_t records = 0;        // lines workload::decode_record accepts
  std::uint64_t skipped = 0;        // non-empty lines it rejects
  std::uint64_t matched = 0;        // records of the selected key
  std::uint64_t matched_bytes = 0;  // their sum of RecordView::encoded_size()
  bool operator==(const SplitCensus&) const = default;
};

// One map task: a chunk of input data resident on `node`.
struct InputSplit {
  std::uint32_t node = 0;
  std::string_view data;  // newline-separated encoded records; caller-owned
  // Bytes charged to the simulated clock; defaults to data.size() but can be
  // overridden (e.g. remote reads charged with a network penalty).
  std::uint64_t charged_bytes = 0;
  SplitCensus census;  // filled by the selection runtime only

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
// backup placements (price() below). Zero everywhere on a clean run.
struct AttemptCounters {
  std::uint64_t attempts = 0;            // dispatched, duplicates included
  std::uint64_t timeouts = 0;            // attempts whose deadline expired
  std::uint64_t transient_retries = 0;   // reads failed then retried (backoff)
  std::uint64_t redispatches = 0;        // cap-counted follow-up dispatches
  std::uint64_t speculative_launched = 0;
  std::uint64_t speculative_wins = 0;    // duplicates that beat the original
  std::uint64_t timing_backups = 0;      // analytic-model backup placements
  std::uint64_t degraded_tasks = 0;      // abandoned at the retry cap

  AttemptCounters& operator+=(const AttemptCounters& o) noexcept {
    attempts += o.attempts;
    timeouts += o.timeouts;
    transient_retries += o.transient_retries;
    redispatches += o.redispatches;
    speculative_launched += o.speculative_launched;
    speculative_wins += o.speculative_wins;
    timing_backups += o.timing_backups;
    degraded_tasks += o.degraded_tasks;
    return *this;
  }
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
  std::uint64_t map_output_pairs = 0;   // pairs the mappers emitted
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
  // Hadoop-style speculative execution, the one speculation-timing pass:
  // while one node finishes well after the rest, its last-running task gets
  // a backup on the earliest idle node and the earlier copy wins, iterated
  // until no backup would finish earlier. Affects simulated map timing only
  // (results are identical either way).
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

// The simulated clock of one job, the one pricing pass: Engine::run calls
// it after executing the job, and core::AnalyticBackend calls it with the
// selection scan's census instead of executing anything. Given each split's
// record count (`task_records[t]` for `splits[t]`) and each reducer
// partition's shuffled bytes (`partition_bytes.size()` is the reducer
// count), it fills the report's map timings (multi-slot list scheduling per
// node in task order, then Hadoop's speculative backup pass when
// options.speculative), shuffle, reduce and total times, and shuffle_bytes.
// Throws std::invalid_argument on options Engine's constructor would reject
// or a split placed past options.num_nodes.
void price(const CostModel& cost, const EngineOptions& options,
           const std::vector<InputSplit>& splits,
           const std::vector<std::uint64_t>& task_records,
           const std::vector<std::uint64_t>& partition_bytes,
           JobReport& report);

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
