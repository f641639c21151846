#include "sim/selection_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace datanet::sim {

scheduler::AssignmentRecord EventSimBackend::assign(
    scheduler::TaskScheduler& sched, const graph::BipartiteGraph& graph,
    const std::vector<std::uint64_t>& block_bytes) {
  if (options_.cluster.num_nodes != graph.num_nodes()) {
    throw std::invalid_argument("EventSimBackend: node count mismatch");
  }
  sched.reset(graph);

  std::vector<SimTask> tasks(graph.num_blocks());
  for (std::size_t j = 0; j < graph.num_blocks(); ++j) {
    tasks[j].input_bytes = block_bytes[j];
    tasks[j].cpu_seconds = options_.cpu_seconds_per_mib *
                           static_cast<double>(block_bytes[j]) /
                           (1024.0 * 1024.0);
  }

  scheduler::AssignmentRecord rec;
  rec.block_to_node.assign(graph.num_blocks(), 0);
  rec.node_load.assign(graph.num_nodes(), 0);
  rec.node_input_bytes.assign(graph.num_nodes(), 0);

  ClusterSim cluster(options_.cluster);
  last_sim_ = cluster.run(
      tasks,
      [&](std::uint32_t node) -> std::optional<std::size_t> {
        const auto j = sched.next_task(node);
        if (j) {
          rec.block_to_node[*j] = node;
          rec.node_load[node] += graph.block(*j).weight;
          rec.node_input_bytes[node] += block_bytes[*j];
          const auto& hosts = graph.block(*j).hosts;
          if (std::find(hosts.begin(), hosts.end(), node) != hosts.end()) {
            ++rec.local_tasks;
          } else {
            ++rec.remote_tasks;
          }
        }
        return j;
      },
      [&](std::uint32_t node, std::size_t j) {
        return !dfs_->is_local(graph.block(j).block_id, node);
      });
  return rec;
}

mapred::JobReport EventSimBackend::report(
    const std::string& /*key*/, const std::vector<mapred::InputSplit>& splits,
    const core::ExperimentConfig& /*cfg*/,
    const std::vector<double>& /*node_speeds — the event model times the
                                  homogeneous cluster */,
    const mapred::AttemptCounters& /*attempts — the runtime merges the
                                     loop's counters on top */) {
  mapred::JobReport rep;
  rep.node_map_seconds.assign(last_sim_.node_finish.begin(),
                              last_sim_.node_finish.end());
  rep.map_phase_seconds = last_sim_.makespan;
  rep.total_seconds = last_sim_.makespan;
  double first = 0.0;
  for (const Time t : last_sim_.task_finish) {
    if (t > 0.0 && (first == 0.0 || t < first)) first = t;
  }
  rep.first_map_finish_seconds = first;
  for (const auto& s : splits) {
    rep.input_bytes += s.data.size();
  }
  return rep;
}

}  // namespace datanet::sim
