#pragma once
// Discrete-event cluster simulator: a second, higher-fidelity timing backend
// next to the analytic cost model in mapred::Engine. Each node has
// `slots` compute slots, a FIFO disk (one read at a time — concurrent tasks
// on one node queue for I/O), and a NIC that bounds remote reads. Task
// lifecycle: wait for a slot -> queue on the source disk -> read -> compute
// -> release slot and pull the next task from the scheduler (genuine
// pull-on-slot-free, the paper's "worker process requests a task" loop).
// Every node has the same hardware (the paper's homogeneous cluster), each
// task runs once, and a slot whose pull goes unanswered retires. The event
// queue breaks time ties FIFO, so reports stay reproducible.
//
// Used by bench_sim_vs_analytic to check that the paper's conclusions are
// robust to the timing model, not an artifact of the closed-form engine.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/event_queue.hpp"

namespace datanet::sim {

struct NodeConfig {
  std::uint32_t slots = 2;
  double disk_mbps = 80.0;   // sequential read bandwidth
  double nic_mbps = 100.0;   // remote-read ceiling
};

struct SimConfig {
  std::uint32_t num_nodes = 1;
  NodeConfig node;  // every node's hardware
};

struct SimTask {
  std::uint64_t input_bytes = 0;
  double cpu_seconds = 1.0;
  bool remote = false;       // read crosses the network (see RemoteFn)
};

// Pull scheduler: invoked when a slot on `node` frees; returns the index of
// the next task to run there, or nullopt when none remain for it.
using PullFn = std::function<std::optional<std::size_t>(std::uint32_t node)>;

// Optional placement-dependent remoteness: whether running `task` on `node`
// requires a network read. When provided it overrides SimTask::remote.
using RemoteFn = std::function<bool(std::uint32_t node, std::size_t task)>;

struct SimResult {
  std::vector<Time> task_finish;   // per task (indexed as given)
  std::vector<std::uint32_t> task_node;  // node the task ran on
  std::vector<Time> node_finish;   // last completion per node
  Time makespan = 0.0;
  std::uint64_t remote_reads = 0;  // reads that crossed the network
};

class ClusterSim {
 public:
  explicit ClusterSim(SimConfig config);

  // Execute `tasks` with assignments pulled from `next_task`. Every task
  // handed out by the scheduler runs exactly once; tasks never handed out
  // keep finish time 0 and an invalid node (the caller's scheduler is
  // responsible for completeness).
  [[nodiscard]] SimResult run(const std::vector<SimTask>& tasks,
                              const PullFn& next_task,
                              const RemoteFn& is_remote = nullptr);

 private:
  SimConfig config_;
};

}  // namespace datanet::sim
