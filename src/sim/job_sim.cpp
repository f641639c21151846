#include "sim/job_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace datanet::sim {

namespace {
constexpr double kMiB = 1024.0 * 1024.0;
}

JobSimReport simulate_analysis_job(
    const std::vector<std::uint64_t>& node_input_bytes,
    const JobSimOptions& options,
    const std::vector<std::uint32_t>& reducer_hosts) {
  const std::uint32_t nodes = options.cluster.num_nodes;
  if (node_input_bytes.size() != nodes) {
    throw std::invalid_argument("simulate_analysis_job: node count mismatch");
  }
  if (options.num_reducers == 0) {
    throw std::invalid_argument("simulate_analysis_job: zero reducers");
  }
  if (!reducer_hosts.empty() &&
      reducer_hosts.size() != options.num_reducers) {
    throw std::invalid_argument("simulate_analysis_job: reducer_hosts size");
  }

  JobSimReport report;
  report.reducer_host.resize(options.num_reducers);
  for (std::uint32_t r = 0; r < options.num_reducers; ++r) {
    report.reducer_host[r] =
        reducer_hosts.empty() ? r % nodes : reducer_hosts[r];
    if (report.reducer_host[r] >= nodes) {
      throw std::invalid_argument("simulate_analysis_job: bad reducer host");
    }
  }

  // ---- map phase: one task per slot per node over the local data ----
  std::vector<SimTask> tasks;
  std::vector<std::uint32_t> task_owner;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const auto slots = options.cluster.node.slots;
    const std::uint64_t per_slot = node_input_bytes[n] / slots;
    for (std::uint32_t s = 0; s < slots; ++s) {
      const std::uint64_t bytes =
          (s + 1 == slots) ? node_input_bytes[n] - per_slot * (slots - 1)
                           : per_slot;
      if (bytes == 0) continue;
      tasks.push_back(SimTask{
          .input_bytes = bytes,
          .cpu_seconds = options.map_cpu_seconds_per_mib *
                         static_cast<double>(bytes) / kMiB,
          .remote = false});
      task_owner.push_back(n);
    }
  }
  ClusterSim cluster(options.cluster);
  std::vector<std::vector<std::size_t>> node_tasks(nodes);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    node_tasks[task_owner[t]].push_back(t);
  }
  std::vector<std::size_t> cursor(nodes, 0);
  report.map = cluster.run(tasks, [&](std::uint32_t n) -> std::optional<std::size_t> {
    if (cursor[n] >= node_tasks[n].size()) return std::nullopt;
    return node_tasks[n][cursor[n]++];
  });
  report.map_phase = report.map.makespan;

  // Per-node map finish (0 for nodes with no data).
  std::vector<Time> node_map_finish(nodes, 0.0);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    node_map_finish[task_owner[t]] =
        std::max(node_map_finish[task_owner[t]], report.map.task_finish[t]);
  }

  // ---- shuffle: (src, reducer) transfers over FIFO duplex NICs ----
  // Deterministic service order: by source map finish, then src, then r.
  struct Transfer {
    std::uint32_t src, r;
    double bytes;
    Time ready;
  };
  std::vector<Transfer> transfers;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const double out = static_cast<double>(node_input_bytes[n]) *
                       options.output_ratio / options.num_reducers;
    if (out <= 0.0) continue;
    for (std::uint32_t r = 0; r < options.num_reducers; ++r) {
      if (report.reducer_host[r] == n) continue;  // local partition
      transfers.push_back(Transfer{n, r, out, node_map_finish[n]});
    }
  }
  std::sort(transfers.begin(), transfers.end(),
            [](const Transfer& a, const Transfer& b) {
              if (a.ready != b.ready) return a.ready < b.ready;
              if (a.src != b.src) return a.src < b.src;
              return a.r < b.r;
            });

  std::vector<Time> tx_free(nodes, 0.0), rx_free(nodes, 0.0);
  report.shuffle_finish.assign(options.num_reducers, 0.0);
  // A reducer's data is "in place" no earlier than its host's own map end
  // (local partition needs no transfer but exists once the map finishes).
  for (std::uint32_t r = 0; r < options.num_reducers; ++r) {
    report.shuffle_finish[r] = node_map_finish[report.reducer_host[r]];
  }
  for (const auto& t : transfers) {
    const std::uint32_t dst = report.reducer_host[t.r];
    const double nic = options.cluster.node.nic_mbps;
    const Time start = std::max({t.ready, tx_free[t.src], rx_free[dst]});
    const Time end = start + t.bytes / kMiB / nic;
    tx_free[t.src] = end;
    rx_free[dst] = end;
    report.shuffle_finish[t.r] = std::max(report.shuffle_finish[t.r], end);
  }

  // ---- reduce ----
  report.reduce_finish.assign(options.num_reducers, 0.0);
  for (std::uint32_t r = 0; r < options.num_reducers; ++r) {
    double total_in = 0.0;
    for (std::uint32_t n = 0; n < nodes; ++n) {
      total_in += static_cast<double>(node_input_bytes[n]) *
                  options.output_ratio / options.num_reducers;
    }
    report.reduce_finish[r] =
        report.shuffle_finish[r] +
        options.reduce_cpu_seconds_per_mib * total_in / kMiB;
    report.makespan = std::max(report.makespan, report.reduce_finish[r]);
  }
  return report;
}

}  // namespace datanet::sim
