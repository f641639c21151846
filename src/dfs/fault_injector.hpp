#pragma once
// Deterministic fault injection for MiniDfs-backed runs. A FaultInjector
// holds a plan of events, each pinned to a logical point in a run (the
// number of completed tasks); the driving harness calls advance(completed)
// after every task and the injector applies all due events to the DFS —
// killing nodes (decommission), corrupting single replicas or whole blocks,
// slowing nodes (a simulated-clock speed multiplier), stalling nodes (the
// node stays alive and keeps its replicas but stops answering task
// requests), and arming transient read errors (a block read fails N times,
// then succeeds). Plans are either explicit or generated from a seed, so
// every faulted run is reproducible bit-for-bit given (DFS seed, plan seed).

#include <cstdint>
#include <vector>

#include "dfs/mini_dfs.hpp"

namespace datanet::dfs {

enum class FaultKind : std::uint8_t {
  kKillNode,        // decommission `node`
  kCorruptReplica,  // mark one copy of `block` bad (see event resolution)
  kCorruptBlock,    // flip a byte of `block`'s data: every copy goes bad
  kSlowNode,        // multiply `node`'s speed by `speed_factor`
  kStallNode,       // `node` stops answering task requests but stays alive:
                    // replicas remain readable and completed work survives —
                    // the straggler case, distinguishable from kKillNode
  kTransientReadError,  // the next `fail_count` reads of `block` fail before
                        // one succeeds (exercises timeout/backoff, not loss)
  kCrashNameNode,   // kill the NameNode: seal the attached edit log, tearing
                    // its tail down to `journal_keep_bytes` (kKeepAllBytes =
                    // a clean death). No-op when no journal is attached, so
                    // plans stay portable to non-durable runs.
};

struct FaultEvent {
  std::uint64_t at_task = 0;  // fires once `at_task` tasks have completed
  FaultKind kind = FaultKind::kKillNode;
  NodeId node = 0;            // kKillNode / kSlowNode / kStallNode; replica
                              // pick for kCorruptReplica (below)
  BlockId block = 0;  // kCorruptReplica / kCorruptBlock / kTransientReadError
  double speed_factor = 1.0;  // kSlowNode only; < 1 means slower
  std::uint32_t fail_count = 1;  // kTransientReadError only; reads that fail
  // kCrashNameNode only: journal bytes surviving the crash (a torn final
  // frame); MiniDfs::kKeepAllBytes keeps the whole durable tail.
  std::uint64_t journal_keep_bytes = MiniDfs::kKeepAllBytes;

  // kCorruptReplica resolution: if `node` hosts `block` at fire time that
  // copy is corrupted; otherwise (re-replication may have moved copies since
  // the plan was written) the replica with ordinal `node % replicas` is —
  // the event always lands on exactly one current copy, deterministically.
};

struct FaultStats {
  std::uint64_t nodes_killed = 0;
  std::uint64_t replicas_corrupted = 0;
  std::uint64_t blocks_corrupted = 0;  // whole-block (media) corruptions
  std::uint64_t nodes_slowed = 0;
  std::uint64_t nodes_stalled = 0;
  std::uint64_t transient_failures_armed = 0;    // sum of fail_count fired
  std::uint64_t transient_failures_consumed = 0; // reads actually failed
  std::uint64_t namenode_crashes = 0;            // kCrashNameNode fired
  // Blocks whose last replica died with a killed node (replication-1 loss).
  std::vector<BlockId> lost_blocks;
};

class FaultInjector {
 public:
  // `dfs` must outlive the injector. The plan is sorted by at_task (stable,
  // so same-point events fire in the order given).
  FaultInjector(MiniDfs& dfs, std::vector<FaultEvent> plan);

  // Seeded random plan over a run of `horizon_tasks` tasks: kill
  // `kill_nodes` distinct nodes, corrupt `corrupt_replicas` random block
  // copies, slow `slow_nodes` distinct nodes by a factor in [0.25, 1), stall
  // `stall_nodes` distinct nodes (disjoint from the killed/slowed sets), and
  // arm `transient_reads` transient read errors (1-3 failures each) on
  // random blocks — each at a point uniform in [1, horizon_tasks]. Never
  // kills more nodes than would leave the cluster empty.
  static FaultInjector random_plan(MiniDfs& dfs, std::uint64_t seed,
                                   std::uint64_t horizon_tasks,
                                   std::uint32_t kill_nodes,
                                   std::uint32_t corrupt_replicas,
                                   std::uint32_t slow_nodes = 0,
                                   std::uint32_t stall_nodes = 0,
                                   std::uint32_t transient_reads = 0);

  // Fire every event due at or before `completed_tasks`; returns the events
  // fired by THIS call (already applied to the DFS). Monotonic: passing a
  // smaller count than before fires nothing.
  std::vector<FaultEvent> advance(std::uint64_t completed_tasks);

  [[nodiscard]] bool exhausted() const noexcept { return next_ == plan_.size(); }
  [[nodiscard]] const std::vector<FaultEvent>& plan() const noexcept {
    return plan_;
  }
  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

  // Current speed multiplier per node (1.0 = nominal; kSlowNode events
  // multiply in). Aligned with the topology's node ids.
  [[nodiscard]] const std::vector<double>& node_speeds() const noexcept {
    return speed_;
  }
  [[nodiscard]] bool any_slowdown() const noexcept { return any_slowdown_; }

  // Whether a fired kStallNode left `node` unresponsive. Stalled nodes keep
  // their replicas and any completed outputs; they just never finish new
  // work. At least one active node always stays responsive (apply() turns a
  // last-responsive-node stall into a no-op, mirroring the kill guard).
  [[nodiscard]] bool is_stalled(NodeId node) const {
    return node < stalled_.size() && stalled_[node] != 0;
  }

  // Consume one armed transient failure for `block` if any remain: returns
  // true when the read should fail (caller retries with backoff), false when
  // it proceeds normally. Deterministic: a countdown per block.
  bool take_transient_read_failure(BlockId block);

 private:
  void apply(const FaultEvent& event);

  MiniDfs* dfs_;
  std::vector<FaultEvent> plan_;
  std::size_t next_ = 0;
  FaultStats stats_;
  std::vector<double> speed_;
  std::vector<std::uint8_t> stalled_;
  std::vector<std::uint32_t> transient_;  // remaining failures per block
  bool any_slowdown_ = false;
};

}  // namespace datanet::dfs
