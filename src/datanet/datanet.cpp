#include "datanet/datanet.hpp"

#include <stdexcept>

namespace datanet::core {

DataNet::DataNet(const dfs::MiniDfs& dfs, std::string path,
                 elasticmap::BuildOptions options)
    : dfs_(&dfs),
      path_(std::move(path)),
      meta_(elasticmap::ElasticMapArray::build(dfs, path_, options)) {}

DataNet::DataNet(std::shared_ptr<const dfs::MiniDfs> dfs, std::string path,
                 elasticmap::BuildOptions options)
    : keep_alive_(std::move(dfs)),
      dfs_(keep_alive_.get()),
      path_(std::move(path)),
      meta_(elasticmap::ElasticMapArray::build(*dfs_, path_, options)) {}

DataNet::DataNet(std::shared_ptr<const dfs::MiniDfs> dfs, std::string path,
                 const elasticmap::ElasticMapArray& base)
    : keep_alive_(std::move(dfs)),
      dfs_(keep_alive_.get()),
      path_(std::move(path)),
      meta_(base) {
  if (base.path() != path_) {
    throw std::invalid_argument("DataNet: base map built for another path");
  }
  meta_.extend(*dfs_);  // throws if the covered prefix changed
}

std::vector<elasticmap::BlockShare> DataNet::distribution(
    std::string_view key) const {
  return meta_.distribution(workload::subdataset_id(key));
}

std::uint64_t DataNet::estimate_total_size(std::string_view key) const {
  return meta_.estimate_total_size(workload::subdataset_id(key));
}

graph::BipartiteGraph DataNet::scheduling_graph(std::string_view key) const {
  const auto shares = distribution(key);
  std::vector<graph::BlockVertex> blocks;
  blocks.reserve(shares.size());
  for (const auto& share : shares) {
    // Snapshot: scheduling-graph builds race background healing when the
    // server runs jobs against a live ReplicationMonitor.
    blocks.push_back(graph::BlockVertex{
        .block_id = share.block_id,
        .weight = share.estimated_bytes,
        .hosts = dfs_->replicas_snapshot(share.block_id),
        .stripes = meta_.stripe_table(share.block_index)});
  }
  return graph::BipartiteGraph(dfs_->topology().num_nodes(), std::move(blocks));
}

graph::BipartiteGraph DataNet::scheduling_graph(
    std::span<const std::string> keys) const {
  // Accumulate per-block weights over all requested sub-datasets.
  std::vector<std::uint64_t> weight(meta_.num_blocks(), 0);
  for (const auto& key : keys) {
    for (const auto& share : distribution(key)) {
      weight[share.block_index] += share.estimated_bytes;
    }
  }
  std::vector<graph::BlockVertex> blocks;
  for (std::uint64_t b = 0; b < meta_.num_blocks(); ++b) {
    if (weight[b] == 0) continue;
    const dfs::BlockId bid = meta_.block_id(b);
    blocks.push_back(graph::BlockVertex{.block_id = bid,
                                        .weight = weight[b],
                                        .hosts = dfs_->replicas_snapshot(bid),
                                        .stripes = meta_.stripe_table(b)});
  }
  return graph::BipartiteGraph(dfs_->topology().num_nodes(), std::move(blocks));
}

}  // namespace datanet::core
