#include "elasticmap/block_meta.hpp"

#include <algorithm>

#include "common/varint.hpp"

namespace datanet::elasticmap {

namespace {
constexpr std::uint64_t kMagic = 0x454d4254u;  // "EMBT"
constexpr std::uint64_t kVersion = 2;          // v2: varint sizes

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
}  // namespace

BlockMeta::BlockMeta(
    std::unordered_map<workload::SubDatasetId, std::uint64_t> dominant,
    const std::vector<workload::SubDatasetId>& tail_ids, double bloom_fpp,
    std::uint64_t delta)
    : dominant_(std::move(dominant)),
      bloom_(std::max<std::uint64_t>(tail_ids.size(), 1), bloom_fpp),
      delta_(delta) {
  for (const auto id : tail_ids) bloom_.insert(id);
}

std::optional<std::uint64_t> BlockMeta::exact_size(
    workload::SubDatasetId id) const {
  const auto it = dominant_.find(id);
  if (it == dominant_.end()) return std::nullopt;
  return it->second;
}

bool BlockMeta::maybe_in_tail(workload::SubDatasetId id) const {
  return bloom_.maybe_contains(id);
}

std::uint64_t BlockMeta::estimate_size(workload::SubDatasetId id,
                                       bool* was_exact) const {
  if (const auto exact = exact_size(id)) {
    if (was_exact) *was_exact = true;
    return *exact;
  }
  if (was_exact) *was_exact = false;
  return maybe_in_tail(id) ? delta_ : 0;
}

std::uint64_t BlockMeta::memory_bytes() const {
  // Exactly what serialize() writes: 16-byte header, varint delta, varint
  // count, per-record fixed 8-byte id + varint size, then the bloom filter
  // (32-byte header + bitmap).
  std::uint64_t bytes = 16 + common::varint_length(delta_) +
                        common::varint_length(dominant_.size());
  for (const auto& [id, size] : dominant_) {
    (void)id;
    bytes += 8 + common::varint_length(size);
  }
  return bytes + 32 + bloom_.memory_bytes();
}

std::string BlockMeta::serialize() const {
  std::string out;
  out.reserve(memory_bytes());
  put_u64(out, kMagic);
  put_u64(out, kVersion);
  common::put_varint(out, delta_);
  common::put_varint(out, dominant_.size());
  for (const auto& [id, size] : dominant_) {
    put_u64(out, id);  // hashed ids are high-entropy; varint would not help
    common::put_varint(out, size);
  }
  out += bloom_.serialize();
  return out;
}

}  // namespace datanet::elasticmap
