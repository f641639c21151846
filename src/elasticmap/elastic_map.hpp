#pragma once
// ElasticMapArray: the DataNet meta-data structure over the n blocks of a
// stored dataset (Figure 3) — one BlockMeta per block, built in a single
// scan of the raw data. This is the structure the master node keeps and the
// distribution-aware scheduler queries.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dfs/mini_dfs.hpp"
#include "elasticmap/block_meta.hpp"
#include "elasticmap/stripe_table.hpp"
#include "workload/record.hpp"

namespace datanet::elasticmap {

struct BuildOptions {
  // Fraction of each block's sub-datasets stored exactly in the hash map
  // (the paper's alpha; evaluation default 0.3).
  double alpha = 0.3;
  double bloom_fpp = 0.01;
  // Threads for the block scan of build() and extend()
  // (common::parallel_for). Blocks are independent, so the result is
  // bit-identical at any thread count. 1 = serial on the caller (default),
  // 0 = hardware concurrency.
  std::uint32_t build_threads = 1;
};

// One block's contribution to a sub-dataset's distribution, as estimated
// from the ElasticMap.
struct BlockShare {
  std::uint64_t block_index = 0;  // ordinal within the file
  dfs::BlockId block_id = 0;
  std::uint64_t estimated_bytes = 0;
  bool exact = false;  // true: hash map, false: bloom-filter delta estimate
};

class ElasticMapArray {
 public:
  // An empty array over `path` (no blocks covered yet); extend() fills it.
  // Throws std::invalid_argument unless options.alpha is in [0, 1].
  ElasticMapArray(std::string path, BuildOptions options);

  // An empty array extended over every block of `path` in `dfs`: a single
  // scan, O(total records).
  static ElasticMapArray build(const dfs::MiniDfs& dfs, const std::string& path,
                               const BuildOptions& options);

  // Scan the blocks of `path` this array does not cover yet — all of them
  // on an empty array, only the appended ones afterwards (Flume-style
  // ingestion) — with the bucket geometry derived from the DFS block size
  // (SeparatorOptions::for_block_size). Returns the number of new blocks
  // incorporated. The dfs file must have the already-covered blocks as an
  // unchanged prefix (std::invalid_argument otherwise).
  std::uint64_t extend(const dfs::MiniDfs& dfs);

  // The staleness of this array against the live namespace: the summed
  // size_bytes of `path`'s blocks past the covered prefix, or of the whole
  // file when the covered prefix no longer matches. Every per-block Eq. 6
  // estimate is at most that block's bytes, so while the prefix matches,
  // for every key
  //   0 <= fresh build's estimate - this array's estimate <= stale_bytes,
  // and the key's true bytes outside the covered blocks are <= stale_bytes
  // (paper §V-B: the accuracy drift staleness alone can cause).
  [[nodiscard]] std::uint64_t stale_bytes(const dfs::MiniDfs& dfs) const;

  [[nodiscard]] std::uint64_t num_blocks() const noexcept { return metas_.size(); }
  [[nodiscard]] const BlockMeta& block_meta(std::uint64_t block_index) const;
  [[nodiscard]] dfs::BlockId block_id(std::uint64_t block_index) const;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  // The block's stripe table, built by the same scan as its BlockMeta and
  // never null. Shared and immutable: copies of this array (the DataNet
  // delta constructor) and scheduling graphs hold the same table. Not part
  // of memory_bytes().
  [[nodiscard]] const std::shared_ptr<const StripeTable>& stripe_table(
      std::uint64_t block_index) const;

  // Estimated per-block distribution of a sub-dataset; blocks with no
  // hash-map entry and no bloom hit are omitted — the I/O-skipping
  // optimization of Section V-B-1.
  [[nodiscard]] std::vector<BlockShare> distribution(
      workload::SubDatasetId id) const;

  // Equation 6: Z = sum_{b in tau1} |s ∩ b| + delta * |tau2|.
  [[nodiscard]] std::uint64_t estimate_total_size(workload::SubDatasetId id) const;

  // Total measured meta-data footprint in bytes.
  [[nodiscard]] std::uint64_t memory_bytes() const;

  // Size ratio of raw data to meta-data (Table II, last column).
  [[nodiscard]] double representation_ratio() const;

  // Accuracy χ (Section V-B-1): 1 - (estimated_total - actual_total)/actual,
  // where the estimate sums Eq. 6 over all sub-datasets. Needs the exact
  // per-id totals from a GroundTruth-style oracle.
  [[nodiscard]] double accuracy_chi(
      const std::vector<std::pair<workload::SubDatasetId, std::uint64_t>>&
          actual_totals) const;

  [[nodiscard]] std::uint64_t raw_bytes() const noexcept { return raw_bytes_; }
  [[nodiscard]] const BuildOptions& options() const noexcept { return options_; }

 private:
  // True when the covered blocks are still the first blocks of `blocks`.
  [[nodiscard]] bool covers_prefix_of(
      const std::vector<dfs::BlockId>& blocks) const;

  std::string path_;
  BuildOptions options_;
  std::vector<BlockMeta> metas_;
  std::vector<dfs::BlockId> block_ids_;
  std::vector<std::shared_ptr<const StripeTable>> stripes_;
  std::uint64_t raw_bytes_ = 0;
};

}  // namespace datanet::elasticmap
