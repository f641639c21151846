#pragma once
// Per-block ElasticMap entry (Section III-A, Figure 3): exact ⟨id, size⟩
// records for the block's dominant sub-datasets in a hash map, plus a Bloom
// filter marking the presence of every non-dominant sub-dataset. `delta` is
// the block's approximate per-sub-dataset size for bloom-resident entries —
// the paper uses the smallest hash-map size value (Eq. 6).

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "bloom/bloom_filter.hpp"
#include "workload/record.hpp"

namespace datanet::elasticmap {

class BlockMeta {
 public:
  // `dominant`: exact sizes kept in the hash map. `tail_ids` go into a Bloom
  // filter sized for their count at `bloom_fpp`. `delta` is the size estimate
  // returned for bloom hits.
  BlockMeta(std::unordered_map<workload::SubDatasetId, std::uint64_t> dominant,
            const std::vector<workload::SubDatasetId>& tail_ids, double bloom_fpp,
            std::uint64_t delta);

  // Exact size if the id is dominant in this block.
  [[nodiscard]] std::optional<std::uint64_t> exact_size(
      workload::SubDatasetId id) const;

  // True if the id *may* be present as a non-dominant sub-dataset.
  [[nodiscard]] bool maybe_in_tail(workload::SubDatasetId id) const;

  // Combined estimate: exact size, or delta on a bloom hit, or 0.
  // `was_exact` (optional out) reports which path was taken.
  [[nodiscard]] std::uint64_t estimate_size(workload::SubDatasetId id,
                                            bool* was_exact = nullptr) const;

  [[nodiscard]] std::uint64_t delta() const noexcept { return delta_; }
  [[nodiscard]] std::uint64_t num_dominant() const noexcept {
    return dominant_.size();
  }
  [[nodiscard]] std::uint64_t num_tail() const noexcept {
    return bloom_.insert_count();
  }

  // Measured meta-data footprint: serialized size in bytes.
  [[nodiscard]] std::uint64_t memory_bytes() const;

  [[nodiscard]] const std::unordered_map<workload::SubDatasetId, std::uint64_t>&
  dominant() const noexcept {
    return dominant_;
  }
  [[nodiscard]] const bloom::BloomFilter& tail_filter() const noexcept {
    return bloom_;
  }

  // Compact binary encoding: the footprint memory_bytes() measures (Table
  // II's "meta KiB"). The array lives in memory only, so nothing decodes it.
  [[nodiscard]] std::string serialize() const;

 private:
  std::unordered_map<workload::SubDatasetId, std::uint64_t> dominant_;
  bloom::BloomFilter bloom_;
  std::uint64_t delta_;
};

}  // namespace datanet::elasticmap
