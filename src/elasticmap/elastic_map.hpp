#pragma once
// ElasticMapArray: the DataNet meta-data structure over the n blocks of a
// stored dataset (Figure 3) — one BlockMeta per block, built in a single
// scan of the raw data. This is the structure the master node keeps and the
// distribution-aware scheduler queries.

#include <cstdint>
#include <string>
#include <vector>

#include "dfs/mini_dfs.hpp"
#include "elasticmap/block_meta.hpp"
#include "elasticmap/separator.hpp"
#include "workload/record.hpp"

namespace datanet::elasticmap {

struct BuildOptions {
  // Fraction of each block's sub-datasets stored exactly in the hash map
  // (the paper's alpha; evaluation default 0.3).
  double alpha = 0.3;
  double bloom_fpp = 0.01;
  // Bucket geometry; zero unit means "derive from the DFS block size with
  // the paper's 64 MiB ratios" (SeparatorOptions::for_block_size).
  SeparatorOptions separator{.bucket_unit = 0, .bucket_max = 0};
  // Threads for the build scan (common::parallel_for). Blocks are
  // independent, so the result is bit-identical at any thread count.
  // 1 = serial on the caller (default), 0 = hardware concurrency.
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
  // Single scan over every block of `path` in `dfs` (O(total records)).
  static ElasticMapArray build(const dfs::MiniDfs& dfs, const std::string& path,
                               const BuildOptions& options);

  // Reassemble from previously persisted parts (see MetaStore).
  static ElasticMapArray from_parts(std::string path, BuildOptions options,
                                    std::vector<BlockMeta> metas,
                                    std::vector<dfs::BlockId> block_ids,
                                    std::uint64_t raw_bytes);

  // Incremental maintenance for append-only logs (Flume-style ingestion):
  // scan only the blocks appended to `path` since this array was built.
  // Returns the number of new blocks incorporated. The dfs file must have
  // the already-covered blocks as an unchanged prefix.
  std::uint64_t extend(const dfs::MiniDfs& dfs);

  // Rate-limited variant: incorporate at most `max_blocks` of the appended
  // blocks (oldest first) — the LiveMapMaintainer's tick primitive. Same
  // prefix validation; max_blocks == 0 incorporates nothing.
  std::uint64_t extend(const dfs::MiniDfs& dfs, std::uint64_t max_blocks);

  [[nodiscard]] std::uint64_t num_blocks() const noexcept { return metas_.size(); }
  [[nodiscard]] const BlockMeta& block_meta(std::uint64_t block_index) const;
  [[nodiscard]] dfs::BlockId block_id(std::uint64_t block_index) const;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

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
  ElasticMapArray(std::string path, BuildOptions options);

  std::string path_;
  BuildOptions options_;
  std::vector<BlockMeta> metas_;
  std::vector<dfs::BlockId> block_ids_;
  std::uint64_t raw_bytes_ = 0;
};

}  // namespace datanet::elasticmap
