#include "dfs/topology.hpp"

#include <stdexcept>
#include <utility>

namespace datanet::dfs {

ClusterTopology ClusterTopology::flat(std::uint32_t num_nodes) {
  if (num_nodes == 0) throw std::invalid_argument("topology: num_nodes == 0");
  return ClusterTopology(num_nodes);
}

std::vector<NodeId> place_replicas(const std::vector<bool>& active,
                                   std::uint32_t replication,
                                   common::Rng& rng) {
  std::vector<NodeId> live;
  live.reserve(active.size());
  for (NodeId n = 0; n < active.size(); ++n) {
    if (active[n]) live.push_back(n);
  }
  if (live.size() < replication) {
    throw std::invalid_argument("placement: not enough active nodes for replication");
  }
  for (std::uint32_t i = 0; i < replication; ++i) {
    std::swap(live[i], live[i + rng.bounded(live.size() - i)]);
  }
  live.resize(replication);
  return live;
}

}  // namespace datanet::dfs
