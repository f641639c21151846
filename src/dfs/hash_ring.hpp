#pragma once
// dfs::HashRing — consistent hashing with virtual nodes, the partitioner
// behind the sharded metadata plane (dfs::MetaPlane). Each shard
// contributes `vnodes_per_shard` points on a 64-bit ring; a key is owned by
// the first point clockwise from its hash. Virtual nodes smooth the
// per-shard share (classic Karger-style rings give a cv of roughly
// 1/sqrt(vnodes) over shard loads), and consistency means adding or
// removing one shard only moves the keys that land on that shard's points —
// no global reshuffle.
//
// Lookups are O(1), not O(log points): the constructor precomputes a
// power-of-two bucket table mapping the top bits of a hash to the first ring
// point at or past the bucket's start, so shard_of is a table index plus an
// expected-constant scan within one bucket (the table has at least as many
// buckets as points). The table is immutable after construction — lookups
// are lock-free and safe from any thread.

#include <cstdint>
#include <string_view>
#include <vector>

namespace datanet::dfs {

class HashRing {
 public:
  // `num_shards` >= 1. The default vnode count keeps the max/mean shard
  // share under ~1.3 for any shard count the plane uses (tested).
  explicit HashRing(std::uint32_t num_shards,
                    std::uint32_t vnodes_per_shard = 64,
                    std::uint64_t seed = 0);

  [[nodiscard]] std::uint32_t num_shards() const noexcept { return num_shards_; }
  [[nodiscard]] std::uint32_t vnodes_per_shard() const noexcept {
    return vnodes_per_shard_;
  }

  // Owner of a raw 64-bit ring position.
  [[nodiscard]] std::uint32_t shard_of_hash(std::uint64_t hash) const noexcept;

  // Owner of a namespace path (files route by path: a file's blocks live
  // together on one metadata shard, so per-file operations touch one shard).
  [[nodiscard]] std::uint32_t shard_of_path(std::string_view path) const noexcept;

  // Number of ring points each shard owns (diagnostics / balance tests).
  [[nodiscard]] std::vector<std::uint32_t> points_per_shard() const;

 private:
  struct Point {
    std::uint64_t position;
    std::uint32_t shard;
  };

  std::uint32_t num_shards_;
  std::uint32_t vnodes_per_shard_;
  std::vector<Point> points_;        // sorted by position
  std::vector<std::uint32_t> bucket_start_;  // bucket -> first point index
  std::uint32_t bucket_shift_ = 64;  // hash >> shift = bucket index
};

}  // namespace datanet::dfs
