#pragma once
// Event-driven model of a full analysis job over node-local filtered data:
// map tasks (slots per node, FIFO disk), then a shuffle in which every node
// streams its partitioned map output to the reducer hosts over full-duplex
// NICs (tx and rx channels are FIFO resources), then reduce compute. The
// event-driven counterpart of the analytic shuffle model behind Fig. 7: an
// imbalanced map phase delays every reducer's last inbound transfer.

#include <cstdint>
#include <vector>

#include "sim/cluster_sim.hpp"

namespace datanet::sim {

struct JobSimOptions {
  SimConfig cluster;
  double map_cpu_seconds_per_mib = 0.5;
  // Map output per input byte after the mappers fold it by key
  // (key-cardinality-bound jobs fold heavily; 0.05 is a WordCount-like
  // ratio).
  double output_ratio = 0.05;
  std::uint32_t num_reducers = 8;
  double reduce_cpu_seconds_per_mib = 0.2;
};

struct JobSimReport {
  SimResult map;                     // map-phase per-task/node timing
  std::vector<Time> shuffle_finish;  // per reducer: last inbound transfer
  std::vector<Time> reduce_finish;   // per reducer
  std::vector<std::uint32_t> reducer_host;
  Time map_phase = 0.0;
  Time makespan = 0.0;

  [[nodiscard]] Time shuffle_span() const {
    // The paper's shuffle-task duration: from the first map completion to
    // the reducer's data being fully in place.
    Time first_map = map_phase;
    for (const Time t : map.task_finish) {
      if (t > 0.0 && t < first_map) first_map = t;
    }
    Time worst = 0.0;
    for (const Time t : shuffle_finish) worst = std::max(worst, t);
    return worst - first_map;
  }
};

// `node_input_bytes[n]` is the filtered data resident on node n (the output
// of a selection phase); each node maps it as `slots` equal tasks. Reducer r
// is hosted on node `reducer_hosts[r]` (empty = round-robin).
[[nodiscard]] JobSimReport simulate_analysis_job(
    const std::vector<std::uint64_t>& node_input_bytes,
    const JobSimOptions& options,
    const std::vector<std::uint32_t>& reducer_hosts = {});

}  // namespace datanet::sim
