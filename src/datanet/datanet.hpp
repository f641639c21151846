#pragma once
// DataNet public API: bind an ElasticMap to a stored dataset, query
// sub-dataset distributions, and build the bipartite scheduling graphs used
// by the distribution-aware schedulers. This is the library facade a
// downstream application uses; the experiment harness in experiment.hpp sits
// on top of it.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dfs/mini_dfs.hpp"
#include "elasticmap/elastic_map.hpp"
#include "graph/bipartite.hpp"
#include "workload/record.hpp"

namespace datanet::core {

class DataNet {
 public:
  // Builds the ElasticMap for `path` in a single scan (Section III-B).
  // The caller guarantees `dfs` outlives this DataNet: scheduling_graph
  // resolves replica placements through it at query time.
  DataNet(const dfs::MiniDfs& dfs, std::string path,
          elasticmap::BuildOptions options = {});

  // Shared-ownership variant for long-lived bundles (datanetd's dataset
  // cache): the DataNet itself keeps the source MiniDfs alive, so a bundle
  // handed to an in-flight query stays valid even after the owning shard is
  // swapped for a recovered instance and the cache entry is rebuilt.
  DataNet(std::shared_ptr<const dfs::MiniDfs> dfs, std::string path,
          elasticmap::BuildOptions options = {});

  // Delta construction (PR 10): copy `base`'s already-built ElasticMap and
  // incrementally scan ONLY the blocks appended to `path` since base was
  // built — the dataset cache's delta-apply path for growing datasets.
  // Throws std::invalid_argument when the covered block prefix changed
  // (file recreated/rewritten); callers fall back to a full build.
  DataNet(std::shared_ptr<const dfs::MiniDfs> dfs, std::string path,
          const elasticmap::ElasticMapArray& base);

  [[nodiscard]] const elasticmap::ElasticMapArray& meta() const noexcept {
    return meta_;
  }
  [[nodiscard]] const dfs::MiniDfs& dfs() const noexcept { return *dfs_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  // Estimated per-block distribution of the sub-dataset keyed `key`
  // (Fig. 1a / 5b series). Blocks proven irrelevant are omitted.
  [[nodiscard]] std::vector<elasticmap::BlockShare> distribution(
      std::string_view key) const;

  // Equation 6 total-size estimate for the sub-dataset.
  [[nodiscard]] std::uint64_t estimate_total_size(std::string_view key) const;

  // Bipartite graph (Section IV-A) for scheduling an analysis of `key`:
  // vertices are the candidate blocks (per ElasticMap), weights the Eq. 6
  // per-block estimates. Blocks with no hash-map entry and no bloom hit are
  // excluded — DataNet's I/O-skipping optimization. Each vertex carries its
  // block's stripe table, so the filter also skips stripes inside a block.
  [[nodiscard]] graph::BipartiteGraph scheduling_graph(std::string_view key) const;

  // Same for a multi-sub-dataset analysis (e.g. a watchlist of movies):
  // per-block weights are the summed estimates of all keys, and a block is
  // a candidate if any key may appear in it.
  [[nodiscard]] graph::BipartiteGraph scheduling_graph(
      std::span<const std::string> keys) const;

 private:
  std::shared_ptr<const dfs::MiniDfs> keep_alive_;  // null for the ref ctor
  const dfs::MiniDfs* dfs_;
  std::string path_;
  elasticmap::ElasticMapArray meta_;
};

}  // namespace datanet::core
