#pragma once
// Persistence for ElasticMap meta-data (the paper's Section V-B-1 note:
// "as the problem size becomes extremely large, the meta-data ... can be
// stored into a database or distributed among multiple machines").
//
// Two layers:
//  * MetaStore — a single file: header, per-block (offset, length) index,
//    then serialized BlockMetas. Supports eager full load and a lazy Reader
//    that deserializes one block's meta on demand (the "does not fit in the
//    master's memory" regime).
//  * ShardedMetaStore — partitions the block index across S shard files
//    (block i lives in shard i % S), modeling meta-data spread over
//    multiple master machines.

// Durability: every blob carries a CRC32 in its index entry, so a
// bit-flipped store fails with MetaStoreCorruptError instead of feeding
// garbage to BlockMeta::deserialize; writes go to `<path>.tmp` and rename
// over the target, so a crash mid-save leaves the previous store intact.
// The format has exactly one version (2); any other header is corrupt.

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dfs/hash_ring.hpp"
#include "elasticmap/elastic_map.hpp"

namespace datanet::elasticmap {

// A store file that is structurally invalid: bad magic/version, truncated,
// out-of-bounds index, or a blob whose CRC32 no longer matches its index
// entry. Derives from std::runtime_error so generic handlers catch it too.
class MetaStoreCorruptError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class MetaStore {
 public:
  // Write the full array to `file_path` (crash-atomic: tmp file + rename).
  static void save(const ElasticMapArray& array, const std::string& file_path);

  // Read the whole file back into memory.
  static ElasticMapArray load(const std::string& file_path);

  // Lazy access: header and index in memory, block metas read on demand.
  class Reader {
   public:
    explicit Reader(const std::string& file_path);

    [[nodiscard]] std::uint64_t num_blocks() const noexcept {
      return index_.size();
    }
    [[nodiscard]] const std::string& dataset_path() const noexcept {
      return dataset_path_;
    }
    [[nodiscard]] std::uint64_t raw_bytes() const noexcept { return raw_bytes_; }

    // Deserialize one block's meta (one seek + one read).
    [[nodiscard]] BlockMeta load_block(std::uint64_t block_index);
    [[nodiscard]] dfs::BlockId block_id(std::uint64_t block_index) const;

   private:
    struct Entry {
      std::uint64_t offset;
      std::uint64_t length;
      dfs::BlockId block_id;
      std::uint32_t crc = 0;  // load_block verifies
    };
    std::ifstream file_;
    std::string dataset_path_;
    std::uint64_t raw_bytes_ = 0;
    std::vector<Entry> index_;
    std::streamoff blobs_begin_ = 0;
  };
};

class ShardedMetaStore {
 public:
  // Writes `num_shards` files "<prefix>.shard<k>"; block i -> shard i % S.
  static void save(const ElasticMapArray& array, const std::string& prefix,
                   std::uint32_t num_shards);

  // Ring-partitioned layout: block i -> ring.shard_of_block(block_id(i)),
  // the placement the sharded metadata plane uses so a store shard lives
  // with the metadata shard that owns its blocks. A shard owning no blocks
  // still gets a (valid, empty) file, so load() never depends on which
  // shards happened to win blocks. Reassemble with load(prefix,
  // ring.num_shards()) — loading is placement-agnostic.
  static void save(const ElasticMapArray& array, const std::string& prefix,
                   const dfs::HashRing& ring);

  // Reassemble the full array from the shard files.
  static ElasticMapArray load(const std::string& prefix, std::uint32_t num_shards);

  [[nodiscard]] static std::string shard_file(const std::string& prefix,
                                              std::uint32_t shard);
};

}  // namespace datanet::elasticmap
