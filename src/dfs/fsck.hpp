#pragma once
// NameNode administrative utilities: fsck (replication health report), the
// MiniDfs counterpart of `hdfs fsck`, plus the open-block and post-fault
// invariant audits. Used by the fault-handling tests and the CLI.

#include <cstdint>
#include <string>
#include <vector>

#include "dfs/meta_plane.hpp"
#include "dfs/mini_dfs.hpp"

namespace datanet::dfs {

struct FsckReport {
  std::uint64_t total_blocks = 0;
  std::uint64_t healthy_blocks = 0;        // replicas == target
  std::uint64_t under_replicated = 0;      // 0 < replicas < target
  std::uint64_t missing_blocks = 0;        // no replicas at all
  std::uint64_t over_replicated = 0;       // replicas > target
  std::uint64_t open_blocks = 0;           // unsealed (mid-ingestion) blocks
  std::uint64_t open_bytes = 0;            // committed bytes in open blocks
  std::vector<std::uint64_t> node_block_counts;  // replicas hosted per node
  double replica_balance_cv = 0.0;  // cv of counts over *active* nodes

  [[nodiscard]] bool healthy() const {
    return missing_blocks == 0 && under_replicated == 0;
  }
};

// Inspect the replica map against the configured replication target.
[[nodiscard]] FsckReport fsck(const MiniDfs& dfs);

// Plane-wide fsck: every shard inspected independently (a shard is a full
// NameNode with its own replica map), plus a combined roll-up whose counts
// are summed, node loads added element-wise, and balance cv recomputed over
// the summed per-node loads. healthy() == every shard healthy. Throws
// ShardUnavailableError while any shard is crashed — recover first, then
// audit (fsck over a half-dead plane would under-count damage).
struct PlaneFsckReport {
  std::vector<FsckReport> shards;  // index == shard id
  FsckReport combined;

  [[nodiscard]] bool healthy() const { return combined.healthy(); }
};

[[nodiscard]] PlaneFsckReport fsck(const MetaPlane& plane);

// One row of the under-replication table: a block with fewer replicas than
// its effective target (min(configured replication, active nodes) — the same
// rule fsck counts by, so draining this list leaves fsck clean).
struct UnderReplicatedBlock {
  BlockId block = 0;
  std::uint32_t surviving = 0;  // current replica count
  std::uint32_t target = 0;     // effective target
};

// All under-replicated blocks, most-damaged first (fewest surviving
// replicas, block id as tiebreak) — the ReplicationMonitor's work queue
// order and the CLI's table.
[[nodiscard]] std::vector<UnderReplicatedBlock> under_replicated_blocks(
    const MiniDfs& dfs);

// Post-run invariant over a faulted DFS: a completed selection may leave
// blocks under-replicated (kills strand replicas until re-replication
// catches up), but data must never silently go missing — unless the cluster
// ran with replication == 1, where a single kill legitimately destroys the
// only copy. `ok` false carries a human-readable violation.
struct PostFaultCheck {
  FsckReport report;
  bool ok = true;
  std::string violation;
};

// Open-block integrity audit (PR 10): compares the live NameNode's open
// blocks against what the durable state (checkpoint + journal) says they
// should hold — `durable` is a MiniDfs::recover'd instance of the same
// namespace. A clean run always matches (MiniDfs only holds committed
// bytes); a mismatch means a group commit was lost or stored bytes diverged
// from the journaled length, and `datanet fsck` exits non-zero on it.
struct OpenBlockAudit {
  std::uint64_t open_blocks = 0;   // open blocks on the live side
  std::uint64_t open_bytes = 0;    // committed bytes across them
  std::uint64_t mismatched = 0;
  std::vector<std::string> violations;  // one human-readable line each

  [[nodiscard]] bool ok() const { return mismatched == 0; }
};

[[nodiscard]] OpenBlockAudit audit_open_blocks(const MiniDfs& live,
                                               const MiniDfs& durable);

[[nodiscard]] PostFaultCheck check_post_fault_invariants(const MiniDfs& dfs);

}  // namespace datanet::dfs
