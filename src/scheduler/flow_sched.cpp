#include "scheduler/flow_sched.hpp"

#include <algorithm>

#include "graph/assignment.hpp"

namespace datanet::scheduler {

void FlowScheduler::reset(const graph::BipartiteGraph& graph) {
  const auto result = graph::balanced_assignment(graph);
  fractional_capacity_ = result.fractional_capacity;
  plan_.reset(graph);
  // Serve each node its heaviest blocks first: long tasks start early, which
  // minimizes end-of-phase straggling.
  std::vector<std::vector<std::size_t>> by_node(graph.num_nodes());
  for (std::size_t j = 0; j < graph.num_blocks(); ++j) {
    by_node[result.assignment[j]].push_back(j);
  }
  for (dfs::NodeId n = 0; n < graph.num_nodes(); ++n) {
    std::sort(by_node[n].begin(), by_node[n].end(),
              [&](std::size_t a, std::size_t b) {
                return graph.block(a).weight > graph.block(b).weight;
              });
    for (const std::size_t j : by_node[n]) plan_.push(n, j);
  }
}

std::optional<std::size_t> FlowScheduler::next_task(dfs::NodeId node) {
  return plan_.next(node);
}

}  // namespace datanet::scheduler
