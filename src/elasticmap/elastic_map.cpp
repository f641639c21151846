#include "elasticmap/elastic_map.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "elasticmap/separator.hpp"

namespace datanet::elasticmap {

ElasticMapArray::ElasticMapArray(std::string path, BuildOptions options)
    : path_(std::move(path)), options_(options) {
  if (options_.alpha < 0.0 || options_.alpha > 1.0) {
    throw std::invalid_argument("ElasticMapArray: alpha in [0,1]");
  }
}

namespace {

// Single scan of one block: accumulate S_j and bucket counts, separate
// dominant from tail, and build the BlockMeta; the same line walk builds the
// block's stripe table (`stripes`, out). `scanned_bytes` (out) receives the
// block's total record bytes.
BlockMeta scan_block(const dfs::MiniDfs& dfs, dfs::BlockId bid,
                     const SeparatorOptions& sep, const BuildOptions& options,
                     std::uint64_t* scanned_bytes,
                     std::shared_ptr<const StripeTable>* stripes) {
  DominantSeparator separator(sep);
  *stripes = std::make_shared<const StripeTable>(StripeTable::scan(
      dfs.read_block(bid),
      [&](workload::SubDatasetId id, std::uint64_t size) {
        separator.add(id, size);
      }));
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
  // The final clamp to the block's record bytes keeps every per-block
  // estimate within the block (a lone tail entry would otherwise get up to
  // twice its size), which is what makes stale_bytes an exact bound.
  std::uint64_t delta = dominant.empty() ? threshold : min_dominant;
  if (!tail.empty()) {
    const std::uint64_t avg_tail = tail_bytes / tail.size();
    delta = std::min<std::uint64_t>(delta, std::max<std::uint64_t>(2 * avg_tail, 1));
  }
  delta = std::min(delta, separator.total_bytes());
  return BlockMeta(std::move(dominant), tail, options.bloom_fpp, delta);
}

}  // namespace

ElasticMapArray ElasticMapArray::build(const dfs::MiniDfs& dfs,
                                       const std::string& path,
                                       const BuildOptions& options) {
  ElasticMapArray out(path, options);
  out.extend(dfs);
  return out;
}

bool ElasticMapArray::covers_prefix_of(
    const std::vector<dfs::BlockId>& blocks) const {
  return blocks.size() >= block_ids_.size() &&
         std::equal(block_ids_.begin(), block_ids_.end(), blocks.begin());
}

std::uint64_t ElasticMapArray::extend(const dfs::MiniDfs& dfs) {
  const auto& blocks = dfs.blocks_of(path_);
  if (!covers_prefix_of(blocks)) {
    throw std::invalid_argument("extend: covered block prefix changed");
  }
  const SeparatorOptions sep =
      SeparatorOptions::for_block_size(dfs.options().block_size);
  const std::size_t covered = metas_.size();
  const std::size_t fresh = blocks.size() - covered;

  // Blocks are independent, so each scan lands in its own preallocated slot
  // and the outcome is identical at any thread count.
  std::vector<std::optional<BlockMeta>> slots(fresh);
  std::vector<std::uint64_t> scanned(fresh, 0);
  std::vector<std::shared_ptr<const StripeTable>> tables(fresh);
  common::parallel_for(options_.build_threads, fresh, [&](std::size_t i) {
    slots[i] = scan_block(dfs, blocks[covered + i], sep, options_, &scanned[i],
                          &tables[i]);
  });
  for (std::size_t i = 0; i < fresh; ++i) {
    metas_.push_back(std::move(*slots[i]));
    block_ids_.push_back(blocks[covered + i]);
    stripes_.push_back(std::move(tables[i]));
    raw_bytes_ += scanned[i];
  }
  return fresh;
}

std::uint64_t ElasticMapArray::stale_bytes(const dfs::MiniDfs& dfs) const {
  const auto& blocks = dfs.blocks_of(path_);
  std::uint64_t stale = 0;
  for (std::size_t i = covers_prefix_of(blocks) ? block_ids_.size() : 0;
       i < blocks.size(); ++i) {
    stale += dfs.block(blocks[i]).size_bytes;
  }
  return stale;
}

const BlockMeta& ElasticMapArray::block_meta(std::uint64_t block_index) const {
  if (block_index >= metas_.size()) throw std::out_of_range("block_meta");
  return metas_[block_index];
}

dfs::BlockId ElasticMapArray::block_id(std::uint64_t block_index) const {
  if (block_index >= block_ids_.size()) throw std::out_of_range("block_id");
  return block_ids_[block_index];
}

const std::shared_ptr<const StripeTable>& ElasticMapArray::stripe_table(
    std::uint64_t block_index) const {
  if (block_index >= stripes_.size()) throw std::out_of_range("stripe_table");
  return stripes_[block_index];
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
