#include "scheduler/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace datanet::scheduler {

void PlanQueues::reset(const graph::BipartiteGraph& graph) {
  graph_ = &graph;
  queues_.assign(graph.num_nodes(), {});
  pending_weight_.assign(graph.num_nodes(), 0);
  queued_ = 0;
}

void PlanQueues::push(dfs::NodeId node, std::size_t block) {
  queues_[node].push_back(block);
  pending_weight_[node] += graph_->block(block).weight;
  ++queued_;
}

std::optional<std::size_t> PlanQueues::next(dfs::NodeId node) {
  if (queued_ == 0) return std::nullopt;
  dfs::NodeId owner = node;
  std::size_t j = 0;
  if (!queues_[node].empty()) {
    j = queues_[node].front();
    queues_[node].pop_front();
  } else {
    // Steal from the node with the most pending weight (ties to the highest
    // id), taking its back (lightest) task to disturb the owner least.
    std::uint64_t most = 0;
    for (dfs::NodeId n = 0; n < static_cast<dfs::NodeId>(queues_.size()); ++n) {
      if (!queues_[n].empty() && pending_weight_[n] >= most) {
        most = pending_weight_[n];
        owner = n;
      }
    }
    j = queues_[owner].back();
    queues_[owner].pop_back();
  }
  pending_weight_[owner] -= graph_->block(j).weight;
  --queued_;
  return j;
}

AssignmentRecord drain(TaskScheduler& sched, const graph::BipartiteGraph& graph,
                       const std::vector<std::uint64_t>& block_bytes) {
  if (block_bytes.size() != graph.num_blocks()) {
    throw std::invalid_argument("drain: block_bytes size mismatch");
  }
  sched.reset(graph);
  AssignmentRecord rec;
  rec.block_to_node.assign(graph.num_blocks(), 0);
  rec.node_load.assign(graph.num_nodes(), 0);
  rec.node_input_bytes.assign(graph.num_nodes(), 0);

  std::vector<std::uint8_t> assigned(graph.num_blocks(), 0);
  std::size_t remaining = graph.num_blocks();
  // A full round of unanswered requests with tasks remaining means the
  // scheduler will never drain.
  std::uint32_t barren_requests = 0;
  for (dfs::NodeId node = 0; remaining > 0;
       node = (node + 1) % graph.num_nodes()) {
    const auto task = sched.next_task(node);
    if (!task) {
      if (++barren_requests >= graph.num_nodes()) {
        throw std::logic_error("drain: scheduler stalled with tasks remaining");
      }
      continue;
    }
    if (*task >= graph.num_blocks() || assigned[*task]) {
      throw std::logic_error("drain: scheduler returned bad/duplicate task");
    }
    assigned[*task] = 1;
    barren_requests = 0;
    rec.block_to_node[*task] = node;
    rec.node_load[node] += graph.block(*task).weight;
    rec.node_input_bytes[node] += block_bytes[*task];
    --remaining;
    const auto& hosts = graph.block(*task).hosts;
    if (std::find(hosts.begin(), hosts.end(), node) != hosts.end()) {
      ++rec.local_tasks;
    } else {
      ++rec.remote_tasks;
    }
  }
  return rec;
}

dfs::NodeId pick_failover_node(const AssignmentRecord& rec,
                               const graph::BipartiteGraph& graph,
                               std::size_t task,
                               const std::vector<bool>& eligible) {
  if (eligible.size() != graph.num_nodes()) {
    throw std::invalid_argument("pick_failover_node: eligible size mismatch");
  }
  const auto& hosts = graph.block(task).hosts;
  // Least-loaded eligible replica holder first; any least-loaded eligible
  // node as the remote fallback.
  const auto pick_min = [&](auto&& ok) {
    dfs::NodeId best = graph.num_nodes();
    for (dfs::NodeId n = 0; n < graph.num_nodes(); ++n) {
      if (!eligible[n] || !ok(n)) continue;
      if (best == graph.num_nodes() ||
          rec.node_input_bytes[n] < rec.node_input_bytes[best]) {
        best = n;
      }
    }
    return best;
  };
  const dfs::NodeId holder = pick_min([&](dfs::NodeId n) {
    return std::find(hosts.begin(), hosts.end(), n) != hosts.end();
  });
  if (holder != graph.num_nodes()) return holder;
  return pick_min([](dfs::NodeId) { return true; });
}

void move_task(AssignmentRecord& rec, const graph::BipartiteGraph& graph,
               const std::vector<std::uint64_t>& block_bytes, std::size_t task,
               dfs::NodeId target) {
  const dfs::NodeId old_node = rec.block_to_node[task];
  if (old_node == target) return;
  const auto& hosts = graph.block(task).hosts;
  const bool was_local =
      std::find(hosts.begin(), hosts.end(), old_node) != hosts.end();
  const bool now_local =
      std::find(hosts.begin(), hosts.end(), target) != hosts.end();

  rec.block_to_node[task] = target;
  rec.node_load[old_node] -= graph.block(task).weight;
  rec.node_load[target] += graph.block(task).weight;
  rec.node_input_bytes[old_node] -= block_bytes[task];
  rec.node_input_bytes[target] += block_bytes[task];
  if (was_local && !now_local) {
    --rec.local_tasks;
    ++rec.remote_tasks;
  } else if (!was_local && now_local) {
    ++rec.local_tasks;
    --rec.remote_tasks;
  }
}

std::uint64_t reassign_stranded(AssignmentRecord& rec,
                                const graph::BipartiteGraph& graph,
                                const std::vector<std::uint64_t>& block_bytes,
                                const std::vector<bool>& alive) {
  if (rec.block_to_node.size() != graph.num_blocks() ||
      block_bytes.size() != graph.num_blocks()) {
    throw std::invalid_argument("reassign_stranded: record/graph size mismatch");
  }
  if (alive.size() != graph.num_nodes()) {
    throw std::invalid_argument("reassign_stranded: alive size mismatch");
  }
  if (std::find(alive.begin(), alive.end(), true) == alive.end()) {
    throw std::runtime_error("reassign_stranded: no surviving node");
  }

  std::uint64_t moved = 0;
  for (std::size_t j = 0; j < graph.num_blocks(); ++j) {
    if (alive[rec.block_to_node[j]]) continue;
    move_task(rec, graph, block_bytes, j,
              pick_failover_node(rec, graph, j, alive));
    ++moved;
  }
  return moved;
}

}  // namespace datanet::scheduler
