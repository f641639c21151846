#include "dfs/fsck.hpp"

#include <algorithm>
#include <cmath>

namespace datanet::dfs {

namespace {

std::uint32_t healthy_copies(const MiniDfs& dfs, BlockId id) {
  const auto& reps = dfs.block(id).replicas;
  return static_cast<std::uint32_t>(
      std::count_if(reps.begin(), reps.end(),
                    [&](NodeId n) { return dfs.replica_healthy(id, n); }));
}

}  // namespace

FsckReport fsck(const MiniDfs& dfs) {
  FsckReport report;
  const std::uint32_t target = dfs.options().replication;
  const std::uint32_t nodes = dfs.topology().num_nodes();
  report.node_block_counts.assign(nodes, 0);

  // Under-replication only counts when spare active nodes exist.
  const std::uint64_t effective =
      std::min<std::uint64_t>(target, dfs.num_active_nodes());
  for (BlockId id = 0; id < dfs.num_blocks(); ++id) {
    const auto& reps = dfs.block(id).replicas;
    const std::uint32_t healthy = healthy_copies(dfs, id);
    ++report.total_blocks;
    if (reps.empty()) {
      ++report.missing_blocks;
    } else if (healthy == 0) {
      ++report.corrupt_blocks;
    } else if (healthy < effective) {
      ++report.under_replicated;
    } else if (reps.size() > target) {
      ++report.over_replicated;
    } else {
      ++report.healthy_blocks;
    }
    for (const NodeId n : reps) ++report.node_block_counts[n];
  }

  for (const OpenBlockInfo& ob : dfs.open_blocks()) {
    ++report.open_blocks;
    report.open_bytes += ob.size_bytes;
  }

  // Balance over active nodes only.
  double sum = 0.0, count = 0.0;
  for (NodeId n = 0; n < nodes; ++n) {
    if (!dfs.is_active(n)) continue;
    sum += static_cast<double>(report.node_block_counts[n]);
    count += 1.0;
  }
  if (count > 0.0 && sum > 0.0) {
    const double mean = sum / count;
    double ss = 0.0;
    for (NodeId n = 0; n < nodes; ++n) {
      if (!dfs.is_active(n)) continue;
      const double d = static_cast<double>(report.node_block_counts[n]) - mean;
      ss += d * d;
    }
    report.replica_balance_cv = std::sqrt(ss / count) / mean;
  }
  return report;
}

PlaneFsckReport fsck(const MetaPlane& plane) {
  PlaneFsckReport out;
  out.shards.reserve(plane.num_shards());
  for (std::uint32_t s = 0; s < plane.num_shards(); ++s) {
    out.shards.push_back(fsck(plane.dfs(s)));  // throws while crashed
  }

  FsckReport& c = out.combined;
  for (const FsckReport& r : out.shards) {
    c.total_blocks += r.total_blocks;
    c.healthy_blocks += r.healthy_blocks;
    c.under_replicated += r.under_replicated;
    c.corrupt_blocks += r.corrupt_blocks;
    c.missing_blocks += r.missing_blocks;
    c.over_replicated += r.over_replicated;
    c.open_blocks += r.open_blocks;
    c.open_bytes += r.open_bytes;
    if (c.node_block_counts.size() < r.node_block_counts.size()) {
      c.node_block_counts.resize(r.node_block_counts.size(), 0);
    }
    for (std::size_t n = 0; n < r.node_block_counts.size(); ++n) {
      c.node_block_counts[n] += r.node_block_counts[n];
    }
  }

  // Balance cv over the summed loads, counting nodes active on shard 0
  // (every shard shares the topology and the active mask only diverges under
  // per-shard faults; the roll-up is a capacity view, not a health gate).
  const MiniDfs& ref = plane.dfs(0);
  double sum = 0.0, count = 0.0;
  for (NodeId n = 0; n < c.node_block_counts.size(); ++n) {
    if (!ref.is_active(n)) continue;
    sum += static_cast<double>(c.node_block_counts[n]);
    count += 1.0;
  }
  if (count > 0.0 && sum > 0.0) {
    const double mean = sum / count;
    double ss = 0.0;
    for (NodeId n = 0; n < c.node_block_counts.size(); ++n) {
      if (!ref.is_active(n)) continue;
      const double d = static_cast<double>(c.node_block_counts[n]) - mean;
      ss += d * d;
    }
    c.replica_balance_cv = std::sqrt(ss / count) / mean;
  }
  return out;
}

std::vector<UnderReplicatedBlock> under_replicated_blocks(const MiniDfs& dfs) {
  std::vector<UnderReplicatedBlock> out;
  const auto target = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      dfs.options().replication, dfs.num_active_nodes()));
  for (BlockId id = 0; id < dfs.num_blocks(); ++id) {
    const std::uint32_t surviving = healthy_copies(dfs, id);
    if (surviving > 0 && surviving < target) {
      out.push_back({id, surviving, target});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const UnderReplicatedBlock& a, const UnderReplicatedBlock& b) {
              if (a.surviving != b.surviving) return a.surviving < b.surviving;
              return a.block < b.block;
            });
  return out;
}

PostFaultCheck check_post_fault_invariants(const MiniDfs& dfs) {
  PostFaultCheck check;
  check.report = fsck(dfs);
  if (check.report.missing_blocks > 0 && dfs.options().replication > 1) {
    check.ok = false;
    check.violation = "fsck: " + std::to_string(check.report.missing_blocks) +
                      " block(s) missing with replication " +
                      std::to_string(dfs.options().replication) +
                      " — faults must not silently destroy replicated data";
  }
  return check;
}

OpenBlockAudit audit_open_blocks(const MiniDfs& live, const MiniDfs& durable) {
  OpenBlockAudit audit;
  const auto live_open = live.open_blocks();
  const auto durable_open = durable.open_blocks();
  audit.open_blocks = live_open.size();
  for (const OpenBlockInfo& ob : live_open) audit.open_bytes += ob.size_bytes;

  auto flag = [&audit](std::string what) {
    ++audit.mismatched;
    audit.violations.push_back(std::move(what));
  };

  if (live_open.size() != durable_open.size()) {
    flag("open-block count: live " + std::to_string(live_open.size()) +
         " vs durable " + std::to_string(durable_open.size()));
  }
  for (const OpenBlockInfo& lb : live_open) {
    const auto it = std::find_if(
        durable_open.begin(), durable_open.end(),
        [&lb](const OpenBlockInfo& db) { return db.id == lb.id; });
    if (it == durable_open.end()) {
      flag("block " + std::to_string(lb.id) +
           ": open on the live NameNode but not journaled");
      continue;
    }
    const OpenBlockInfo& db = *it;
    if (lb.size_bytes != db.size_bytes || lb.num_records != db.num_records ||
        lb.extents_applied != db.extents_applied) {
      flag("block " + std::to_string(lb.id) + ": stored " +
           std::to_string(lb.size_bytes) + " B / " +
           std::to_string(lb.num_records) + " rec / " +
           std::to_string(lb.extents_applied) + " extents vs journaled " +
           std::to_string(db.size_bytes) + " B / " +
           std::to_string(db.num_records) + " rec / " +
           std::to_string(db.extents_applied) + " extents");
      continue;
    }
    if (lb.file != db.file) {
      flag("block " + std::to_string(lb.id) + ": file '" + lb.file +
           "' vs journaled '" + db.file + "'");
      continue;
    }
    // Same length; the committed CONTENT must match too (the running CRC is
    // recomputed at every group commit, so it stands in for the bytes).
    if (live.block(lb.id).checksum != durable.block(db.id).checksum) {
      flag("block " + std::to_string(lb.id) +
           ": stored bytes disagree with the journaled extents (CRC)");
    }
  }
  return audit;
}

}  // namespace datanet::dfs
