#include "graph/bipartite.hpp"

#include <stdexcept>

namespace datanet::graph {

BipartiteGraph::BipartiteGraph(std::uint32_t num_nodes,
                               std::vector<BlockVertex> blocks)
    : num_nodes_(num_nodes), blocks_(std::move(blocks)) {
  if (num_nodes_ == 0) throw std::invalid_argument("BipartiteGraph: no nodes");
  node_to_blocks_.resize(num_nodes_);
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    total_weight_ += blocks_[i].weight;
    for (const dfs::NodeId n : blocks_[i].hosts) {
      if (n >= num_nodes_) throw std::invalid_argument("BipartiteGraph: bad host");
      node_to_blocks_[n].push_back(i);
    }
  }
}

BipartiteGraph BipartiteGraph::content_blind(const dfs::MiniDfs& dfs,
                                             const std::string& path) {
  std::vector<BlockVertex> blocks;
  for (const dfs::BlockId id : dfs.blocks_of(path)) {
    // Snapshot, not reference: graph building may race background healing
    // (datanetd jobs vs ReplicationMonitor), and the replica vector mutates
    // under repair.
    blocks.push_back(BlockVertex{
        .block_id = id, .weight = 0, .hosts = dfs.replicas_snapshot(id)});
  }
  return BipartiteGraph(dfs.topology().num_nodes(), std::move(blocks));
}

const BlockVertex& BipartiteGraph::block(std::size_t idx) const {
  if (idx >= blocks_.size()) throw std::out_of_range("BipartiteGraph::block");
  return blocks_[idx];
}

const std::vector<std::size_t>& BipartiteGraph::blocks_on(dfs::NodeId node) const {
  if (node >= node_to_blocks_.size()) {
    throw std::out_of_range("BipartiteGraph::blocks_on");
  }
  return node_to_blocks_[node];
}

}  // namespace datanet::graph
