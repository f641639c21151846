#pragma once
// Bipartite graph G = (CN, B, E) of Section IV-A: cluster nodes × block
// files, an edge (cn_i, b_j) iff node cn_i hosts a replica of b_j, edge
// weight |b_j ∩ s| (the size of the target sub-dataset in that block).
// This is the structure both the greedy Algorithm 1 scheduler and the
// flow-based scheduler operate on.

#include <cstdint>
#include <memory>
#include <vector>

#include "dfs/mini_dfs.hpp"

namespace datanet::elasticmap {
class StripeTable;
}

namespace datanet::graph {

struct BlockVertex {
  dfs::BlockId block_id = 0;
  std::uint64_t weight = 0;          // |b ∩ s| (estimated or exact bytes)
  std::vector<dfs::NodeId> hosts;    // replicas
  // The block's stripe table from the ElasticMap scan (DataNet graphs), so
  // the materialize filter can skip stripes the key cannot be in; null
  // (content-blind graphs) means a whole-block scan.
  std::shared_ptr<const elasticmap::StripeTable> stripes;
};

class BipartiteGraph {
 public:
  BipartiteGraph(std::uint32_t num_nodes, std::vector<BlockVertex> blocks);

  [[nodiscard]] std::uint32_t num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] std::size_t num_blocks() const noexcept { return blocks_.size(); }
  [[nodiscard]] const BlockVertex& block(std::size_t idx) const;
  [[nodiscard]] const std::vector<BlockVertex>& blocks() const noexcept {
    return blocks_;
  }

  // Indices of blocks hosted on `node` (the d_i sets of Algorithm 1).
  [[nodiscard]] const std::vector<std::size_t>& blocks_on(dfs::NodeId node) const;

  [[nodiscard]] std::uint64_t total_weight() const noexcept { return total_weight_; }

  // The content-blind view of `path`: every block of the file with weight
  // zero and its current replica holders. The locality baseline scans every
  // block: it does not know which ones hold the sub-dataset.
  static BipartiteGraph content_blind(const dfs::MiniDfs& dfs,
                                      const std::string& path);

 private:
  std::uint32_t num_nodes_;
  std::vector<BlockVertex> blocks_;
  std::vector<std::vector<std::size_t>> node_to_blocks_;
  std::uint64_t total_weight_ = 0;
};

}  // namespace datanet::graph
