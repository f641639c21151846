#include "dfs/hash_ring.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/hash.hpp"

namespace datanet::dfs {

HashRing::HashRing(std::uint32_t num_shards, std::uint32_t vnodes_per_shard,
                   std::uint64_t seed)
    : num_shards_(num_shards), vnodes_per_shard_(vnodes_per_shard) {
  if (num_shards == 0) throw std::invalid_argument("HashRing: 0 shards");
  if (vnodes_per_shard == 0) throw std::invalid_argument("HashRing: 0 vnodes");
  if (num_shards == 1) return;  // degenerate ring: everything is shard 0

  points_.reserve(static_cast<std::size_t>(num_shards) * vnodes_per_shard);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    for (std::uint32_t v = 0; v < vnodes_per_shard; ++v) {
      const std::uint64_t pos = common::mix64(
          common::hash_combine(common::mix64(seed ^ 0x9e3779b97f4a7c15ULL),
                               (static_cast<std::uint64_t>(s) << 32) | v));
      points_.push_back({pos, s});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              return a.position < b.position ||
                     (a.position == b.position && a.shard < b.shard);
            });

  // Bucket table: at least one bucket per point (rounded up to a power of
  // two), so the expected number of points per bucket is <= 1 and the scan
  // in shard_of_hash is O(1) amortized.
  const std::uint32_t want = std::bit_ceil(
      static_cast<std::uint32_t>(std::max<std::size_t>(points_.size(), 1)));
  bucket_shift_ = 64 - std::bit_width(want) + 1;  // want == 1u << (64 - shift)
  bucket_start_.resize(want);
  std::size_t p = 0;
  for (std::uint32_t b = 0; b < want; ++b) {
    const std::uint64_t bucket_begin = static_cast<std::uint64_t>(b)
                                       << bucket_shift_;
    while (p < points_.size() && points_[p].position < bucket_begin) ++p;
    bucket_start_[b] = static_cast<std::uint32_t>(p);
  }
}

std::uint32_t HashRing::shard_of_hash(std::uint64_t hash) const noexcept {
  if (num_shards_ == 1) return 0;
  // First point at or past `hash`, wrapping to the ring's first point.
  std::size_t i = bucket_start_[hash >> bucket_shift_];
  while (i < points_.size() && points_[i].position < hash) ++i;
  return i < points_.size() ? points_[i].shard : points_.front().shard;
}

std::uint32_t HashRing::shard_of_path(std::string_view path) const noexcept {
  return shard_of_hash(common::hash_bytes(path, /*seed=*/0x706c616e65ULL));
}

std::vector<std::uint32_t> HashRing::points_per_shard() const {
  std::vector<std::uint32_t> counts(num_shards_, 0);
  if (num_shards_ == 1) {
    counts[0] = 1;
    return counts;
  }
  for (const Point& p : points_) ++counts[p.shard];
  return counts;
}

}  // namespace datanet::dfs
