#include "scheduler/datanet_sched.hpp"

#include <cmath>
#include <limits>

namespace datanet::scheduler {

void DataNetScheduler::reset(const graph::BipartiteGraph& graph) {
  graph_ = &graph;
  assigned_.assign(graph.num_blocks(), false);
  local_to_.assign(graph.num_blocks(), false);
  remaining_ = graph.num_blocks();
  workload_.assign(graph.num_nodes(), 0);
  average_ = static_cast<double>(graph.total_weight()) /
             static_cast<double>(graph.num_nodes());
  local_.assign(graph.num_nodes(), {});
  for (dfs::NodeId n = 0; n < graph.num_nodes(); ++n) local_[n] = graph.blocks_on(n);
}

double DataNetScheduler::score(dfs::NodeId node, std::size_t block) const {
  // |W_i + |b_x ∩ s| - W|  (Algorithm 1, lines 10/14).
  const double w = static_cast<double>(workload_[node]) +
                   static_cast<double>(graph_->block(block).weight);
  return std::fabs(w - average_);
}

void DataNetScheduler::commit(dfs::NodeId node, std::size_t block) {
  assigned_[block] = true;
  --remaining_;
  workload_[node] += graph_->block(block).weight;
}

std::optional<std::size_t> DataNetScheduler::next_task(dfs::NodeId node) {
  if (graph_ == nullptr || remaining_ == 0) return std::nullopt;
  return options_.strict_locality ? next_task_strict(node)
                                  : next_task_biased(node);
}

std::optional<std::size_t> DataNetScheduler::next_task_strict(dfs::NodeId node) {
  // d_i: local unassigned blocks (compact lazily while scanning).
  auto& mine = local_[node];
  std::size_t best = assigned_.size();
  double best_score = std::numeric_limits<double>::infinity();
  std::size_t write = 0;
  for (std::size_t r = 0; r < mine.size(); ++r) {
    const std::size_t j = mine[r];
    if (assigned_[j]) continue;  // drop: its edge was removed
    mine[write++] = j;
    const double s = score(node, j);
    if (s < best_score) {
      best_score = s;
      best = j;
    }
  }
  mine.resize(write);

  if (best == assigned_.size()) {
    // d_i empty: pick the global argmin over remaining tasks (line 14).
    for (std::size_t j = 0; j < assigned_.size(); ++j) {
      if (assigned_[j]) continue;
      const double s = score(node, j);
      if (s < best_score) {
        best_score = s;
        best = j;
      }
    }
  }
  if (best == assigned_.size()) return std::nullopt;
  commit(node, best);
  return best;
}

std::optional<std::size_t> DataNetScheduler::next_task_biased(dfs::NodeId node) {
  // Mark which remaining blocks are local to the requester (and compact d_i).
  auto& mine = local_[node];
  std::size_t write = 0;
  for (std::size_t r = 0; r < mine.size(); ++r) {
    const std::size_t j = mine[r];
    if (assigned_[j]) continue;
    mine[write++] = j;
    local_to_[j] = true;
  }
  mine.resize(write);

  const double remote_penalty = options_.locality_bias * average_;
  std::size_t best = assigned_.size();
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < assigned_.size(); ++j) {
    if (assigned_[j]) continue;
    const double s = score(node, j) + (local_to_[j] ? 0.0 : remote_penalty);
    if (s < best_score) {
      best_score = s;
      best = j;
    }
  }
  for (const std::size_t j : mine) local_to_[j] = false;  // reset scratch

  if (best == assigned_.size()) return std::nullopt;
  commit(node, best);
  return best;
}

}  // namespace datanet::scheduler
