#pragma once
// SelectionRuntime: the single pull-driven execution engine behind every
// selection-phase entry point (the paper's Algorithm 1 task-request loop).
// One runtime drives any scheduler::TaskScheduler and composes three policy
// seams:
//
//   * ReplicaReadPolicy — how a task obtains its block bytes and what the
//     attempt costs on the simulated clock. DirectReadPolicy is the clean
//     logical read; ChecksumRetryReadPolicy is the Hadoop datanode path
//     (local copy first, then remaining replica holders ascending, every
//     failed checksum charged as a full read and reported to the NameNode).
//   * FaultPolicy — which faults fire as tasks complete. NoFaults is the
//     empty plan: a zero-fault run is this policy, not a separate harness.
//     InjectedFaults adapts dfs::FaultInjector (kill / corrupt / slow /
//     stall / transient-read).
//   * TimingBackend — how the assignment is ordered and the phase is timed.
//     AnalyticBackend keeps the fair round-robin request order and the
//     closed-form mapred::Engine cost model (and runs the real filter job,
//     so report.output is live). sim::EventSimBackend (sim/selection_sim.hpp)
//     drives the same scheduler with discrete-event pull-on-slot-free
//     ordering instead.
//
// There is exactly one materialize loop, and it is straggler-resilient
// (core::AttemptTracker): every run — NoFaults or injected faults, with or
// without a ReplicationMonitor — goes through it. Every dispatched task is a
// TaskAttempt on a deterministic logical clock;
// attempts parked on a stalled node time out and are re-dispatched with
// exponential backoff onto scheduler::pick_failover_node's choice, nodes
// accumulating timeouts are blacklisted, near-drained runs launch
// Hadoop-style speculative duplicates with first-result-wins, and the retry
// cap degrades (never hangs) a task no node can finish. The clock jumps to
// the next deadline when nothing is ready, so stalled plans cost O(attempts)
// iterations. See DESIGN.md §5d for the lifecycle state machine.
//
// Invariance properties (tests/selection_runtime_test.cpp, faults_test.cpp):
//   * JobReports are bit-identical at any engine thread count;
//   * a FaultPolicy with an empty plan never changes any report field;
//   * every seeded plan (kill/stall/transient mixes included) completes.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/simd_scan.hpp"
#include "datanet/attempt_tracker.hpp"
#include "datanet/experiment.hpp"
#include "dfs/fault_injector.hpp"
#include "dfs/mini_dfs.hpp"

namespace datanet::dfs {
class ReplicationMonitor;
}

namespace datanet::core {

// ---- read policy ----

// Outcome of one task's read, including every failed attempt made.
// Move-only: `pin` keeps the DFS bytes behind `data` immovable/unmutated, so
// the zero-copy view stays valid while background healing mutates the
// namespace (the PR 6 lifetime hazard). run_graph holds every task's pin
// until after the timing report, which is the last consumer of the views.
struct ReplicaRead {
  std::string_view data;              // valid iff ok, for the pin's lifetime
  dfs::BlockPin pin;                  // guards `data` against the mutator
  std::uint64_t charged_bytes = 0;    // simulated cost of all attempts
  std::uint64_t failed_attempts = 0;  // checksum failures before success/loss
  bool ok = false;                    // false = no healthy copy remains
};

class ReplicaReadPolicy {
 public:
  virtual ~ReplicaReadPolicy() = default;
  // Obtain the bytes of `block` for a task running on `node`.
  [[nodiscard]] virtual ReplicaRead read(dfs::BlockId block,
                                         dfs::NodeId node) = 0;
};

// Clean-path read: the logical block via MiniDfs::read_block, charged
// remote_read_penalty extra when `node` holds no replica. Propagates
// dfs::BlockCorruptError — corruption is a fault-path concern.
class DirectReadPolicy final : public ReplicaReadPolicy {
 public:
  DirectReadPolicy(const dfs::MiniDfs& dfs, double remote_read_penalty)
      : dfs_(&dfs), penalty_(remote_read_penalty) {}
  [[nodiscard]] ReplicaRead read(dfs::BlockId block, dfs::NodeId node) override;

 private:
  const dfs::MiniDfs* dfs_;
  double penalty_;
};

// Local-first / checksum-retry / report-corrupt read path: try the task's
// own copy if it holds one, then the other current replica holders in
// ascending node order. Each failed checksum costs a full (possibly remote)
// read before the failure is detected, and the bad copy is reported so the
// NameNode drops and re-replicates it. ok == false when every copy is bad.
class ChecksumRetryReadPolicy final : public ReplicaReadPolicy {
 public:
  ChecksumRetryReadPolicy(dfs::MiniDfs& dfs, double remote_read_penalty)
      : dfs_(&dfs), penalty_(remote_read_penalty) {}
  [[nodiscard]] ReplicaRead read(dfs::BlockId block, dfs::NodeId node) override;

 private:
  dfs::MiniDfs* dfs_;
  double penalty_;
};

// ---- fault policy ----

class FaultPolicy {
 public:
  virtual ~FaultPolicy() = default;
  // Called with the number of executed task attempts so far (0 before the
  // first); applies due faults and returns true when a node kill fired —
  // the runtime then re-enqueues the dead node's pending AND completed work.
  virtual bool advance(std::uint64_t executed_tasks) = 0;
  // Whether `node` currently ignores task requests without being dead (the
  // straggler fault). Attempts dispatched there park until their deadline.
  [[nodiscard]] virtual bool is_stalled(dfs::NodeId) const { return false; }
  // Consume one armed transient failure for `block`: true = this read fails
  // and the attempt retries with backoff.
  [[nodiscard]] virtual bool take_transient_read_failure(dfs::BlockId) {
    return false;
  }
  // Per-node simulated speed multipliers in effect after the run (empty =
  // nominal); forwarded to the timing backend.
  [[nodiscard]] virtual std::vector<double> node_speeds() const { return {}; }
};

// The empty plan: no events, ever.
class NoFaults final : public FaultPolicy {
 public:
  bool advance(std::uint64_t) override { return false; }
};

// Adapter over dfs::FaultInjector's deterministic plans.
class InjectedFaults final : public FaultPolicy {
 public:
  explicit InjectedFaults(dfs::FaultInjector& injector) : injector_(&injector) {}
  bool advance(std::uint64_t executed_tasks) override;
  [[nodiscard]] bool is_stalled(dfs::NodeId node) const override;
  [[nodiscard]] bool take_transient_read_failure(dfs::BlockId block) override;
  [[nodiscard]] std::vector<double> node_speeds() const override;

 private:
  dfs::FaultInjector* injector_;
};

// ---- timing backend ----

class TimingBackend {
 public:
  virtual ~TimingBackend() = default;
  // Drive `sched` to a full assignment over `graph` (the pull loop; the
  // backend owns the request order).
  [[nodiscard]] virtual scheduler::AssignmentRecord assign(
      scheduler::TaskScheduler& sched, const graph::BipartiteGraph& graph,
      const std::vector<std::uint64_t>& block_bytes) = 0;
  // Selection-phase JobReport over the materialized splits. `node_speeds`
  // is the FaultPolicy's post-run view (empty = homogeneous); `attempts`
  // the materialize loop's attempt counters (one attempt per task and
  // nothing else on clean runs) — the backend prices wasted/duplicated work
  // from them.
  [[nodiscard]] virtual mapred::JobReport report(
      const std::string& key, const std::vector<mapred::InputSplit>& splits,
      const ExperimentConfig& cfg, const std::vector<double>& node_speeds,
      const mapred::AttemptCounters& attempts) = 0;
};

// Fair round-robin request order + the closed-form engine cost model. Runs
// the real filter job over the splits, so the report carries live output.
// When the attempt layer launched speculative duplicates the engine's
// speculative backup pass (mapred::apply_speculative_backups — the one
// speculation-timing implementation) prices them; clean runs keep the exact
// non-speculative timings.
class AnalyticBackend final : public TimingBackend {
 public:
  [[nodiscard]] scheduler::AssignmentRecord assign(
      scheduler::TaskScheduler& sched, const graph::BipartiteGraph& graph,
      const std::vector<std::uint64_t>& block_bytes) override;
  [[nodiscard]] mapred::JobReport report(
      const std::string& key, const std::vector<mapred::InputSplit>& splits,
      const ExperimentConfig& cfg, const std::vector<double>& node_speeds,
      const mapred::AttemptCounters& attempts) override;
};

// Same fair round-robin assignment as AnalyticBackend, but report() prices
// nothing: it returns an empty JobReport instead of re-running the filter
// job through the engine. The selection OUTPUT is unaffected — node-local
// buffers and filtered-bytes come from the runtime's materialize loop, which
// is backend-independent — so callers that only need the selected bytes
// (the datanetd serving path) skip the whole engine cost-model pass and pay
// scan cost per query. Attempt/recovery counters still land in the report
// via run_graph's post-merge.
class CostOnlyBackend final : public TimingBackend {
 public:
  [[nodiscard]] scheduler::AssignmentRecord assign(
      scheduler::TaskScheduler& sched, const graph::BipartiteGraph& graph,
      const std::vector<std::uint64_t>& block_bytes) override;
  [[nodiscard]] mapred::JobReport report(
      const std::string& key, const std::vector<mapred::InputSplit>& splits,
      const ExperimentConfig& cfg, const std::vector<double>& node_speeds,
      const mapred::AttemptCounters& attempts) override;
};

// ---- the runtime ----

class SelectionRuntime {
 public:
  // Policies must outlive the runtime; each run drives read -> fault ->
  // timing through the shared pull/materialize/report pipeline. `attempts`
  // tunes the straggler layer (defaults keep clean runs byte-identical to
  // the pre-attempt loop).
  SelectionRuntime(ReplicaReadPolicy& read, FaultPolicy& faults,
                   TimingBackend& timing, AttemptOptions attempts = {})
      : read_(&read), faults_(&faults), timing_(&timing), attempts_(attempts) {
    attempts_.validate();
  }

  // Optional fourth seam: a background healing loop over the same DFS the
  // run reads from. When wired in, the monitor scans + ticks once per
  // executed task (its tick clock advances with the run), is drained after
  // the selection finishes, and its counters land in report.recovery — via
  // whichever TimingBackend produced the report. The monitor must outlive
  // the runtime; pair it with DfsOptions::inline_repair = false so healing
  // actually flows through the queue.
  SelectionRuntime& with_replication_monitor(dfs::ReplicationMonitor& monitor) {
    monitor_ = &monitor;
    return *this;
  }

  // Full pipeline: build the scheduling graph for `key` (DataNet prunes +
  // weights candidate blocks when `net` != nullptr; the content-blind
  // baseline scans everything with zero weights) and execute it.
  [[nodiscard]] SelectionResult run(const dfs::MiniDfs& dfs,
                                    const std::string& path,
                                    const std::string& key,
                                    scheduler::TaskScheduler& sched,
                                    const DataNet* net,
                                    const ExperimentConfig& cfg) const;

  // Prebuilt-graph entry. `materialize` false skips the read/filter/attempt
  // loop (timing-only runs: node_local_data stays empty) — cmd_simulate's
  // event-timing path.
  [[nodiscard]] SelectionResult run_graph(const dfs::MiniDfs& dfs,
                                          const graph::BipartiteGraph& graph,
                                          const std::string& key,
                                          scheduler::TaskScheduler& sched,
                                          const ExperimentConfig& cfg,
                                          bool materialize = true) const;

 private:
  ReplicaReadPolicy* read_;
  FaultPolicy* faults_;
  TimingBackend* timing_;
  AttemptOptions attempts_;
  dfs::ReplicationMonitor* monitor_ = nullptr;  // optional; non-owning
};

// ---- shared filtering kernel ----

// Copy the record lines of `data` whose key equals `key` into `out`; returns
// the bytes appended (lines kept verbatim, '\n' restored). Line splitting
// and the exact key-field test run in common::scan_key_lines — SIMD '\n'/'\t'
// bitmask scanning under runtime CPU dispatch — so only candidate lines pay
// the full workload::decode_record (which still validates the timestamp
// before the line is kept). See bench_hotpath for scalar-vs-SIMD deltas.
std::uint64_t filter_lines(std::string_view data, const std::string& key,
                           std::string& out);

// Same, pinned to one scan kernel (equivalence fuzz + the kernel bench).
std::uint64_t filter_lines(std::string_view data, const std::string& key,
                           std::string& out, common::ScanKernel kernel);

// Reference implementation (full decode of every line); kept for the
// equivalence test and the bench comparison.
std::uint64_t filter_lines_decode_all(std::string_view data,
                                      const std::string& key,
                                      std::string& out);

}  // namespace datanet::core
