#include "dfs/replication_monitor.hpp"

#include <algorithm>

namespace datanet::dfs {

ReplicationMonitor::ReplicationMonitor(MiniDfs& dfs,
                                       ReplicationMonitorOptions options)
    : dfs_(dfs), options_(options) {
  if (options_.max_repairs_per_tick == 0) {
    throw std::invalid_argument("ReplicationMonitor: zero repair rate");
  }
}

std::uint64_t ReplicationMonitor::scan() {
  ++stats_.scans;

  // Pay-as-you-go: every actionable scrub or repair mutates the DFS and
  // bumps its mutation epoch, so an unchanged epoch proves this scan would
  // rebuild exactly the queue it left behind last time. Idle monitors (clean
  // runs, converged drains) stop paying O(blocks) per tick.
  if (scanned_ && dfs_.mutation_epoch() == scanned_epoch_) {
    return queue_.size();
  }

  // Scrub pass: a copy marked corrupt is dropped as soon as a healthy
  // sibling exists to re-replicate from — that moves the block into the
  // under-replication view below, where the rate-limited queue heals it.
  // Media-corrupt blocks (checksum of the logical bytes broken) have no
  // healthy source anywhere and are left alone; so is a marked copy that is
  // currently the only one, since dropping it would turn damage into loss.
  for (BlockId id = 0; id < dfs_.num_blocks(); ++id) {
    for (const NodeId node : dfs_.corrupt_replica_marks(id)) {
      const auto& reps = dfs_.block(id).replicas;
      const bool have_sibling =
          std::any_of(reps.begin(), reps.end(), [&](NodeId n) {
            return n != node && dfs_.replica_healthy(id, n);
          });
      if (!have_sibling) continue;
      dfs_.report_corrupt_replica(id, node);
      ++stats_.scrubbed_replicas;
    }
  }

  // Rebuild the queue from the fsck view, keeping first-observed ticks for
  // blocks already being tracked.
  queue_.clear();
  for (const UnderReplicatedBlock& u : under_replicated_blocks(dfs_)) {
    const auto [it, inserted] = observed_at_.try_emplace(u.block, stats_.ticks);
    queue_.push_back({u.block, u.surviving, u.target, it->second});
    (void)inserted;
  }
  stats_.pending_repairs = queue_.size();
  scanned_epoch_ = dfs_.mutation_epoch();
  scanned_ = true;
  return queue_.size();
}

std::uint64_t ReplicationMonitor::tick() {
  ++stats_.ticks;
  std::uint64_t repaired = 0;
  std::vector<PendingRepair> still_pending;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    PendingRepair item = queue_[i];
    if (repaired >= options_.max_repairs_per_tick) {
      still_pending.push_back(item);
      continue;
    }
    const auto target_node = dfs_.repair_block(item.block);
    if (!target_node) {
      // No healthy source or no eligible target right now; drop it rather
      // than spin — the next scan re-queues it if the situation changes.
      // The drop changed the queue without touching the DFS, so the next
      // scan must run in full to preserve the historical re-queue cadence.
      ++stats_.unrepairable;
      observed_at_.erase(item.block);
      scanned_ = false;
      continue;
    }
    ++repaired;
    ++stats_.repairs;
    ++item.surviving;
    if (item.surviving >= item.target) {
      ++stats_.healed_blocks;
      stats_.mttr_ticks += stats_.ticks - item.observed_tick;
      observed_at_.erase(item.block);
    } else {
      still_pending.push_back(item);
    }
  }
  queue_ = std::move(still_pending);
  // Queue order is (surviving, block id); partially-healed blocks may now
  // sort later than untouched ones.
  std::sort(queue_.begin(), queue_.end(),
            [](const PendingRepair& a, const PendingRepair& b) {
              if (a.surviving != b.surviving) return a.surviving < b.surviving;
              return a.block < b.block;
            });
  stats_.pending_repairs = queue_.size();
  return repaired;
}

std::uint64_t ReplicationMonitor::drain() {
  std::uint64_t spent = 0;
  while (spent < kMaxDrainTicks) {
    if (scan() == 0) break;
    ++spent;
    if (tick() == 0) break;  // everything queued is unrepairable
  }
  return spent;
}

std::vector<ReplicationMonitor::PendingRepair> ReplicationMonitor::queue()
    const {
  return queue_;
}

}  // namespace datanet::dfs
