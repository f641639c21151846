#include "dfs/fault_injector.hpp"

#include <algorithm>
#include <stdexcept>

namespace datanet::dfs {

FaultInjector::FaultInjector(MiniDfs& dfs, std::vector<FaultEvent> plan)
    : dfs_(&dfs), plan_(std::move(plan)) {
  std::stable_sort(plan_.begin(), plan_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_task < b.at_task;
                   });
  for (const auto& e : plan_) {
    if ((e.kind == FaultKind::kKillNode || e.kind == FaultKind::kSlowNode ||
         e.kind == FaultKind::kStallNode) &&
        e.node >= dfs.topology().num_nodes()) {
      throw std::invalid_argument("FaultInjector: event names a bad node");
    }
    if (e.kind == FaultKind::kSlowNode && !(e.speed_factor > 0.0)) {
      throw std::invalid_argument("FaultInjector: speed_factor must be > 0");
    }
    if (e.kind == FaultKind::kTransientReadError && e.fail_count == 0) {
      throw std::invalid_argument("FaultInjector: fail_count must be > 0");
    }
  }
  speed_.assign(dfs.topology().num_nodes(), 1.0);
  stalled_.assign(dfs.topology().num_nodes(), 0);
}

FaultInjector FaultInjector::random_plan(MiniDfs& dfs, std::uint64_t seed,
                                         std::uint64_t horizon_tasks,
                                         std::uint32_t kill_nodes,
                                         std::uint32_t corrupt_replicas,
                                         std::uint32_t slow_nodes,
                                         std::uint32_t stall_nodes,
                                         std::uint32_t transient_reads) {
  common::Rng rng(seed);
  const std::uint32_t n = dfs.topology().num_nodes();
  const std::uint64_t horizon = std::max<std::uint64_t>(horizon_tasks, 1);
  std::vector<FaultEvent> plan;

  // Distinct victims: at least one node must survive every kill.
  kill_nodes = std::min(kill_nodes, n > 1 ? n - 1 : 0);
  std::vector<NodeId> nodes(n);
  for (NodeId i = 0; i < n; ++i) nodes[i] = i;
  for (std::uint32_t i = 0; i < kill_nodes; ++i) {
    const auto j = i + rng.bounded(nodes.size() - i);
    std::swap(nodes[i], nodes[j]);
    plan.push_back(FaultEvent{.at_task = 1 + rng.bounded(horizon),
                              .kind = FaultKind::kKillNode,
                              .node = nodes[i]});
  }
  for (std::uint32_t i = 0; i < corrupt_replicas && dfs.num_blocks() > 0; ++i) {
    plan.push_back(FaultEvent{.at_task = 1 + rng.bounded(horizon),
                              .kind = FaultKind::kCorruptReplica,
                              .node = static_cast<NodeId>(rng.bounded(n)),
                              .block = rng.bounded(dfs.num_blocks())});
  }
  slow_nodes = std::min(slow_nodes, n - kill_nodes);  // draw from the rest
  for (std::uint32_t i = 0; i < slow_nodes; ++i) {
    const auto j = kill_nodes + i +
                   rng.bounded(nodes.size() - kill_nodes - i);
    std::swap(nodes[kill_nodes + i], nodes[j]);
    plan.push_back(FaultEvent{.at_task = 1 + rng.bounded(horizon),
                              .kind = FaultKind::kSlowNode,
                              .node = nodes[kill_nodes + i],
                              .speed_factor = rng.uniform(0.25, 1.0)});
  }
  // Stalled nodes draw from the remaining (never-killed, never-slowed) pool
  // and always leave one responsive survivor among them.
  const std::uint32_t drawn = kill_nodes + slow_nodes;
  stall_nodes = std::min(stall_nodes, n > drawn + 1 ? n - drawn - 1 : 0);
  for (std::uint32_t i = 0; i < stall_nodes; ++i) {
    const auto j = drawn + i + rng.bounded(nodes.size() - drawn - i);
    std::swap(nodes[drawn + i], nodes[j]);
    plan.push_back(FaultEvent{.at_task = 1 + rng.bounded(horizon),
                              .kind = FaultKind::kStallNode,
                              .node = nodes[drawn + i]});
  }
  for (std::uint32_t i = 0; i < transient_reads && dfs.num_blocks() > 0; ++i) {
    plan.push_back(FaultEvent{
        .at_task = 1 + rng.bounded(horizon),
        .kind = FaultKind::kTransientReadError,
        .block = rng.bounded(dfs.num_blocks()),
        .fail_count = static_cast<std::uint32_t>(1 + rng.bounded(3))});
  }
  return FaultInjector(dfs, std::move(plan));
}

std::vector<FaultEvent> FaultInjector::advance(std::uint64_t completed_tasks) {
  std::vector<FaultEvent> fired;
  while (next_ < plan_.size() && plan_[next_].at_task <= completed_tasks) {
    apply(plan_[next_]);
    fired.push_back(plan_[next_]);
    ++next_;
  }
  return fired;
}

bool FaultInjector::take_transient_read_failure(BlockId block) {
  if (block >= transient_.size() || transient_[block] == 0) return false;
  --transient_[block];
  ++stats_.transient_failures_consumed;
  return true;
}

void FaultInjector::apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kKillNode: {
      if (!dfs_->is_active(event.node)) break;  // already dead: no-op
      if (dfs_->num_active_nodes() <= 1) break;  // never empty the cluster
      const auto lost = dfs_->decommission(event.node);
      stats_.lost_blocks.insert(stats_.lost_blocks.end(), lost.begin(),
                                lost.end());
      ++stats_.nodes_killed;
      break;
    }
    case FaultKind::kCorruptReplica: {
      if (event.block >= dfs_->num_blocks()) break;
      const auto& reps = dfs_->block(event.block).replicas;
      if (reps.empty()) break;  // already lost
      const NodeId victim =
          dfs_->is_local(event.block, event.node)
              ? event.node
              : reps[event.node % reps.size()];
      dfs_->corrupt_replica(event.block, victim);
      ++stats_.replicas_corrupted;
      break;
    }
    case FaultKind::kCorruptBlock: {
      if (event.block >= dfs_->num_blocks()) break;
      dfs_->corrupt_block(event.block);
      ++stats_.blocks_corrupted;
      break;
    }
    case FaultKind::kSlowNode: {
      speed_[event.node] *= event.speed_factor;
      any_slowdown_ = true;
      ++stats_.nodes_slowed;
      break;
    }
    case FaultKind::kStallNode: {
      if (stalled_[event.node]) break;            // already stalled: no-op
      if (!dfs_->is_active(event.node)) break;    // dead nodes can't stall
      // Never stall the last responsive active node: some worker must keep
      // answering or every plan would hang at the retry cap.
      std::uint32_t responsive = 0;
      for (NodeId n = 0; n < stalled_.size(); ++n) {
        if (dfs_->is_active(n) && !stalled_[n]) ++responsive;
      }
      if (responsive <= 1) break;
      stalled_[event.node] = 1;
      ++stats_.nodes_stalled;
      break;
    }
    case FaultKind::kTransientReadError: {
      if (event.block >= dfs_->num_blocks()) break;
      if (transient_.size() < dfs_->num_blocks()) {
        transient_.resize(dfs_->num_blocks(), 0);
      }
      transient_[event.block] += event.fail_count;
      stats_.transient_failures_armed += event.fail_count;
      break;
    }
    case FaultKind::kCrashNameNode: {
      if (dfs_->edit_log() == nullptr) break;  // nothing durable to tear
      dfs_->crash_namenode(event.journal_keep_bytes);
      ++stats_.namenode_crashes;
      break;
    }
  }
}

}  // namespace datanet::dfs
