#pragma once
// Cluster shape and replica placement for the simulated DFS. The paper's
// testbed (PRObE Marmot) is 128 nodes on one switch and its analysis assumes
// random block placement (Section II-B), so a cluster is a node count and
// placement is one rule: uniform over the live nodes.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace datanet::dfs {

using NodeId = std::uint32_t;

class ClusterTopology {
 public:
  // `num_nodes` nodes on one switch; throws std::invalid_argument on 0.
  static ClusterTopology flat(std::uint32_t num_nodes);

  [[nodiscard]] std::uint32_t num_nodes() const noexcept { return num_nodes_; }

 private:
  explicit ClusterTopology(std::uint32_t num_nodes) : num_nodes_(num_nodes) {}

  std::uint32_t num_nodes_ = 0;
};

// The one placement rule: `replication` distinct nodes drawn uniformly from
// the nodes with active[n] set, by a partial Fisher–Yates shuffle over the
// ascending live-node list (one rng.bounded draw per replica). Throws
// std::invalid_argument when fewer than `replication` nodes are active.
// MiniDfs places new blocks with it and picks every re-replication target
// with it (replication 1 over the active nodes not hosting the block).
[[nodiscard]] std::vector<NodeId> place_replicas(const std::vector<bool>& active,
                                                 std::uint32_t replication,
                                                 common::Rng& rng);

}  // namespace datanet::dfs
