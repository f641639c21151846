#include "scheduler/lpt.hpp"

#include <algorithm>
#include <numeric>

namespace datanet::scheduler {

void LptScheduler::reset(const graph::BipartiteGraph& graph) {
  plan_.reset(graph);
  planned_.assign(graph.num_nodes(), 0);

  std::vector<std::size_t> order(graph.num_blocks());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return graph.block(a).weight > graph.block(b).weight;
  });

  const double average = static_cast<double>(graph.total_weight()) /
                         static_cast<double>(graph.num_nodes());
  for (const std::size_t j : order) {
    const auto& hosts = graph.block(j).hosts;
    // Least-loaded replica holder.
    dfs::NodeId target = hosts.empty() ? 0 : hosts[0];
    for (const dfs::NodeId n : hosts) {
      if (planned_[n] < planned_[target]) target = n;
    }
    // Relocate when every holder is already past the average.
    if (!hosts.empty() && static_cast<double>(planned_[target]) > average) {
      for (dfs::NodeId n = 0; n < graph.num_nodes(); ++n) {
        if (planned_[n] < planned_[target]) target = n;
      }
    }
    planned_[target] += graph.block(j).weight;
    plan_.push(target, j);
  }
}

std::optional<std::size_t> LptScheduler::next_task(dfs::NodeId node) {
  return plan_.next(node);
}

}  // namespace datanet::scheduler
