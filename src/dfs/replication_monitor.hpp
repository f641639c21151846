#pragma once
// dfs::ReplicationMonitor — the NameNode's background healing loop (HDFS's
// ReplicationMonitor / RedundancyMonitor). Replaces the inline one-shot
// repair in MiniDfs (run with DfsOptions::inline_repair = false): damage is
// only *recorded* at fault time, and this monitor converges the namespace
// back to full replication through a rate-limited queue.
//
//   scan()  — refresh the work queue from the fsck under-replication view,
//             after scrubbing marked-corrupt copies that have a healthy
//             sibling (dropping a bad copy is what puts the block into the
//             under-replicated set the queue is built from).
//   tick()  — one unit of background time: repair up to
//             max_repairs_per_tick queued blocks, most-damaged first
//             (fewest surviving replicas, block id as tiebreak), each via
//             MiniDfs::repair_block (active-mask aware).
//   drain() — scan+tick until fsck is clean or no progress is possible.
//
// MTTR accounting: a block's damage is timestamped with the tick count at
// the scan that first saw it; when the block reaches its effective target,
// mttr_ticks accumulates (heal tick − observed tick). Everything is
// deterministic — same DFS seed and fault plan, same healing sequence.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dfs/fsck.hpp"
#include "dfs/mini_dfs.hpp"

namespace datanet::dfs {

struct ReplicationMonitorOptions {
  std::uint32_t max_repairs_per_tick = 4;  // healing rate limit
};

// drain()'s safety valve: it stops after this many ticks.
inline constexpr std::uint64_t kMaxDrainTicks = 100000;

struct ReplicationMonitorStats {
  std::uint64_t healed_blocks = 0;      // blocks brought back to target
  std::uint64_t pending_repairs = 0;    // queue depth after last scan/tick
  std::uint64_t mttr_ticks = 0;         // sum of (heal tick − observed tick)
  std::uint64_t scans = 0;
  std::uint64_t ticks = 0;
  std::uint64_t repairs = 0;            // replicas created
  std::uint64_t scrubbed_replicas = 0;  // marked-corrupt copies dropped
  std::uint64_t unrepairable = 0;       // dropped from queue: no source/target
};

class ReplicationMonitor {
 public:
  explicit ReplicationMonitor(MiniDfs& dfs,
                              ReplicationMonitorOptions options = {});

  // Returns the queue depth after the refresh.
  std::uint64_t scan();

  // Returns the number of replicas created this tick.
  std::uint64_t tick();

  // Returns the number of ticks spent. Stops when a scan finds nothing or a
  // tick makes no progress (every queued block unrepairable).
  std::uint64_t drain();

  [[nodiscard]] const ReplicationMonitorStats& stats() const noexcept {
    return stats_;
  }

  struct PendingRepair {
    BlockId block = 0;
    std::uint32_t surviving = 0;
    std::uint32_t target = 0;
    std::uint64_t observed_tick = 0;
  };
  // Snapshot of the queue in repair order.
  [[nodiscard]] std::vector<PendingRepair> queue() const;

 private:
  MiniDfs& dfs_;
  ReplicationMonitorOptions options_;
  ReplicationMonitorStats stats_;
  std::vector<PendingRepair> queue_;                       // repair order
  std::unordered_map<BlockId, std::uint64_t> observed_at_;  // first-seen tick
  // DFS mutation epoch as of the last full scan; when it hasn't moved, the
  // scrub/rebuild pass would reproduce the queue verbatim and is skipped.
  std::uint64_t scanned_epoch_ = 0;
  bool scanned_ = false;
};

}  // namespace datanet::dfs
