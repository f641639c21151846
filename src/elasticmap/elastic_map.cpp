#include "elasticmap/elastic_map.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace datanet::elasticmap {

ElasticMapArray::ElasticMapArray(std::string path, BuildOptions options)
    : path_(std::move(path)), options_(options) {}

namespace {

SeparatorOptions resolve_separator(const BuildOptions& options,
                                   const dfs::MiniDfs& dfs) {
  SeparatorOptions sep = options.separator;
  if (sep.bucket_unit == 0) {
    sep = SeparatorOptions::for_block_size(dfs.options().block_size);
  }
  return sep;
}

// Single scan of one block: accumulate S_j and bucket counts, separate
// dominant from tail, and build the BlockMeta. `scanned_bytes` (out)
// receives the block's total record bytes.
BlockMeta scan_block(const dfs::MiniDfs& dfs, dfs::BlockId bid,
                     const SeparatorOptions& sep, const BuildOptions& options,
                     std::uint64_t* scanned_bytes) {
  DominantSeparator separator(sep);
  workload::for_each_record(dfs.read_block(bid),
                            [&](const workload::RecordView& rv) {
                              separator.add(rv.id(), rv.encoded_size());
                            });
  *scanned_bytes = separator.total_bytes();

  const std::uint64_t threshold = separator.threshold_for_fraction(options.alpha);

  std::unordered_map<workload::SubDatasetId, std::uint64_t> dominant;
  std::vector<workload::SubDatasetId> tail;
  std::uint64_t min_dominant = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t tail_bytes = 0;
  for (const auto& [id, size] : separator.sizes()) {
    if (threshold == 0 || size >= threshold) {
      dominant.emplace(id, size);
      min_dominant = std::min(min_dominant, size);
    } else {
      tail.push_back(id);
      tail_bytes += size;
    }
  }
  // Delta (Eq. 6): the paper uses the smallest size value recorded in the
  // hash map. That is a per-entry upper bound, but with scaled-down blocks
  // it overestimates the tail mass badly, so we cap it at twice the
  // block's average tail size — still an overestimate for the typical
  // tail entry (accuracy falls as alpha shrinks, as in Table II) while
  // keeping the aggregate within a factor of the true tail mass.
  std::uint64_t delta = dominant.empty() ? threshold : min_dominant;
  if (!tail.empty()) {
    const std::uint64_t avg_tail = tail_bytes / tail.size();
    delta = std::min<std::uint64_t>(delta, std::max<std::uint64_t>(2 * avg_tail, 1));
  }
  return BlockMeta(std::move(dominant), tail, options.bloom_fpp, delta);
}

}  // namespace

ElasticMapArray ElasticMapArray::build(const dfs::MiniDfs& dfs,
                                       const std::string& path,
                                       const BuildOptions& options) {
  if (options.alpha < 0.0 || options.alpha > 1.0) {
    throw std::invalid_argument("ElasticMapArray: alpha in [0,1]");
  }
  ElasticMapArray out(path, options);
  const SeparatorOptions sep = resolve_separator(options, dfs);
  const auto& blocks = dfs.blocks_of(path);
  out.block_ids_ = blocks;

  // Blocks are independent, so each scan lands in its own preallocated slot
  // and the outcome is identical at any thread count.
  std::vector<std::optional<BlockMeta>> slots(blocks.size());
  std::vector<std::uint64_t> scanned(blocks.size(), 0);
  common::parallel_for(options.build_threads, blocks.size(),
                       [&](std::size_t i) {
    slots[i] = scan_block(dfs, blocks[i], sep, options, &scanned[i]);
  });
  out.metas_.reserve(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    out.metas_.push_back(std::move(*slots[i]));
    out.raw_bytes_ += scanned[i];
  }
  return out;
}

ElasticMapArray ElasticMapArray::from_parts(std::string path, BuildOptions options,
                                            std::vector<BlockMeta> metas,
                                            std::vector<dfs::BlockId> block_ids,
                                            std::uint64_t raw_bytes) {
  if (metas.size() != block_ids.size()) {
    throw std::invalid_argument("from_parts: metas/block_ids size mismatch");
  }
  ElasticMapArray out(std::move(path), options);
  out.metas_ = std::move(metas);
  out.block_ids_ = std::move(block_ids);
  out.raw_bytes_ = raw_bytes;
  return out;
}

std::uint64_t ElasticMapArray::extend(const dfs::MiniDfs& dfs) {
  return extend(dfs, ~0ull);
}

std::uint64_t ElasticMapArray::extend(const dfs::MiniDfs& dfs,
                                      std::uint64_t max_blocks) {
  const auto& blocks = dfs.blocks_of(path_);
  if (blocks.size() < metas_.size()) {
    throw std::invalid_argument("extend: file shrank since the array was built");
  }
  for (std::size_t i = 0; i < metas_.size(); ++i) {
    if (blocks[i] != block_ids_[i]) {
      throw std::invalid_argument("extend: covered block prefix changed");
    }
  }
  const SeparatorOptions sep = resolve_separator(options_, dfs);
  std::uint64_t added = 0;
  for (std::size_t i = metas_.size(); i < blocks.size() && added < max_blocks;
       ++i) {
    std::uint64_t scanned = 0;
    metas_.push_back(scan_block(dfs, blocks[i], sep, options_, &scanned));
    block_ids_.push_back(blocks[i]);
    raw_bytes_ += scanned;
    ++added;
  }
  return added;
}

const BlockMeta& ElasticMapArray::block_meta(std::uint64_t block_index) const {
  if (block_index >= metas_.size()) throw std::out_of_range("block_meta");
  return metas_[block_index];
}

dfs::BlockId ElasticMapArray::block_id(std::uint64_t block_index) const {
  if (block_index >= block_ids_.size()) throw std::out_of_range("block_id");
  return block_ids_[block_index];
}

std::vector<BlockShare> ElasticMapArray::distribution(
    workload::SubDatasetId id) const {
  std::vector<BlockShare> out;
  out.reserve(metas_.size());
  for (std::uint64_t i = 0; i < metas_.size(); ++i) {
    bool exact = false;
    const std::uint64_t est = metas_[i].estimate_size(id, &exact);
    if (est == 0 && !exact) continue;  // block demonstrably irrelevant
    out.push_back(BlockShare{.block_index = i,
                             .block_id = block_ids_[i],
                             .estimated_bytes = est,
                             .exact = exact});
  }
  return out;
}

std::uint64_t ElasticMapArray::estimate_total_size(
    workload::SubDatasetId id) const {
  // Sum of the per-block shares: each block is probed exactly once (hash map
  // lookup or Bloom probe) and the total is consistent with distribution()
  // by construction — blocks the distribution omits contribute zero.
  std::uint64_t total = 0;
  for (const BlockShare& share : distribution(id)) total += share.estimated_bytes;
  return total;
}

std::uint64_t ElasticMapArray::memory_bytes() const {
  std::uint64_t total = 0;
  for (const auto& meta : metas_) total += meta.memory_bytes();
  return total;
}

double ElasticMapArray::representation_ratio() const {
  const std::uint64_t mem = memory_bytes();
  return mem == 0 ? 0.0
                  : static_cast<double>(raw_bytes_) / static_cast<double>(mem);
}

double ElasticMapArray::accuracy_chi(
    const std::vector<std::pair<workload::SubDatasetId, std::uint64_t>>&
        actual_totals) const {
  double estimated = 0.0;
  double actual = 0.0;
  for (const auto& [id, actual_size] : actual_totals) {
    estimated += static_cast<double>(estimate_total_size(id));
    actual += static_cast<double>(actual_size);
  }
  if (actual == 0.0) return 1.0;
  return 1.0 - (estimated - actual) / actual;
}

}  // namespace datanet::elasticmap
