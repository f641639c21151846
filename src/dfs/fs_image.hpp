#pragma once
// dfs::FsImage — the NameNode checkpoint (HDFS fsimage). save() serializes
// the whole durable namespace — options, node count, active-node mask, files,
// block metadata AND block bytes (MiniDfs holds the single in-memory copy
// that stands in for the datanode plane) — plus the journal offset the image
// covers, then commits it crash-atomically: write `<path>.tmp`, flush, rename
// over `path`. A crash mid-checkpoint leaves the previous image intact; a
// reader never sees a torn file because the whole buffer carries a CRC32
// trailer that load() verifies before parsing a byte.
//
// Recovery = FsImage::load(image) + EditLog::replay(journal) suffix, wrapped
// as MiniDfs::recover (defined here, next to the serializer it pairs with).

#include <cstdint>
#include <string>

#include "dfs/mini_dfs.hpp"

namespace datanet::dfs {

// Thrown when an image file is missing, truncated, bit-flipped (CRC32
// trailer mismatch), or structurally invalid.
class FsImageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class FsImage {
 public:
  // Header-only summary for `datanet_cli fsck` — cheap relative to a full
  // load only in spirit (the CRC check still reads the file once).
  struct Stats {
    std::uint64_t file_bytes = 0;        // on-disk image size
    std::uint64_t journal_covered = 0;   // journal offset the image reflects
    std::uint64_t num_files = 0;
    std::uint64_t num_blocks = 0;
    std::uint64_t num_open_blocks = 0;  // unsealed blocks in the image
    std::uint32_t num_nodes = 0;
    std::uint32_t active_nodes = 0;
  };

  // Checkpoint `dfs` to `path` atomically. The recorded journal offset is
  // the attached journal's bytes_written() (0 when none is attached).
  static void save(const MiniDfs& dfs, const std::string& path);

  // Parse and verify an image. Any malformed image, including a
  // checksum-valid one whose header fields contradict each other, throws
  // FsImageError. The rebuilt instance starts a fresh placement RNG seeded
  // from the stored options.
  [[nodiscard]] static MiniDfs load(const std::string& path);

  [[nodiscard]] static Stats inspect(const std::string& path);

 private:
  friend class MiniDfs;  // recover() also needs the journal offset

  // One read and CRC pass: the instance and the offset recover() skips to.
  struct Loaded {
    MiniDfs dfs;
    std::uint64_t journal_covered;
  };
  [[nodiscard]] static Loaded parse(const std::string& path);
};

}  // namespace datanet::dfs
