#include "sim/cluster_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace datanet::sim {

namespace {
constexpr double kMiB = 1024.0 * 1024.0;
}

ClusterSim::ClusterSim(SimConfig config) : config_(std::move(config)) {
  if (config_.num_nodes == 0) throw std::invalid_argument("sim: num_nodes == 0");
  const NodeConfig& nc = config_.node;
  if (nc.slots == 0 || !(nc.disk_mbps > 0.0) || !(nc.nic_mbps > 0.0)) {
    throw std::invalid_argument("sim: invalid node config");
  }
}

SimResult ClusterSim::run(const std::vector<SimTask>& tasks,
                          const PullFn& next_task, const RemoteFn& is_remote) {
  if (!next_task) throw std::invalid_argument("sim: null scheduler");

  SimResult result;
  result.task_finish.assign(tasks.size(), 0.0);
  result.task_node.assign(tasks.size(), config_.num_nodes);  // invalid = unrun
  result.node_finish.assign(config_.num_nodes, 0.0);

  EventQueue queue;
  // Per-node FIFO disk: the time at which the disk frees.
  std::vector<Time> disk_free(config_.num_nodes, 0.0);
  const NodeConfig& nc = config_.node;

  std::function<void(std::uint32_t)> pull = [&](std::uint32_t node) {
    const auto t = next_task(node);
    if (!t) return;  // slot retires
    if (*t >= tasks.size()) throw std::logic_error("sim: bad task index");
    // Disk FIFO, NIC-bounded when the read is remote, then compute.
    const SimTask& task = tasks[*t];
    const bool remote = is_remote ? is_remote(node, *t) : task.remote;
    const double rate_mbps =
        remote ? std::min(nc.disk_mbps, nc.nic_mbps) : nc.disk_mbps;
    const Time read_end = std::max(queue.now(), disk_free[node]) +
                          static_cast<double>(task.input_bytes) / kMiB /
                              rate_mbps;
    const Time finish = read_end + task.cpu_seconds;
    disk_free[node] = read_end;
    if (remote) ++result.remote_reads;
    queue.schedule(finish, [&, t = *t, node, finish] {
      result.task_finish[t] = finish;
      result.task_node[t] = node;
      result.node_finish[node] = std::max(result.node_finish[node], finish);
      pull(node);
    });
  };

  // Kick off every slot at t = 0.
  for (std::uint32_t n = 0; n < config_.num_nodes; ++n) {
    for (std::uint32_t s = 0; s < nc.slots; ++s) {
      queue.schedule(0.0, [&, n] { pull(n); });
    }
  }
  queue.run();

  result.makespan =
      *std::max_element(result.node_finish.begin(), result.node_finish.end());
  return result;
}

}  // namespace datanet::sim
