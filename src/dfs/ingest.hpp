#pragma once
// dfs::Ingestor — the one writer. Every block comes into being through it as
// open_block -> append_extent (one per group) -> seal_block, so every block
// is journaled as kOpenBlock, one kAppendExtent per group commit, and
// kSealBlock. Records accumulate in memory and are made durable in groups:
// one kAppendExtent frame (and flush) per group instead of per record. A
// crash loses at most the group being buffered — never a committed group —
// and recovery restores the open block exactly up to the last committed
// extent.
//
// Two group sizes are in use. Streaming ingestion commits small groups (64
// records) to bound the crash-loss window. MiniDfs::create returns an
// Ingestor whose group is the whole block, so a bulk load writes each block
// as a single extent at seal time. The group size never changes the
// namespace: a block seals when the next record would overflow block_size
// (an oversized record gets a block of its own), and placement is drawn once
// per block, in block order, when the block opens at its first flush.
//
// Single-mutator contract: an Ingestor is the one mutator thread while it
// runs; queries may read concurrently and only ever see sealed blocks.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace datanet::dfs {

using BlockId = std::uint64_t;  // same alias as mini_dfs.hpp (no cycle)
class MiniDfs;

struct IngestOptions {
  // Records per group commit. Larger groups amortize journal flushes at the
  // cost of a bigger crash-loss window (the in-memory tail).
  std::uint64_t group_records = 64;
};

struct IngestStats {
  std::uint64_t records_appended = 0;  // handed to append()
  std::uint64_t records_committed = 0; // durable (covered by an extent frame)
  std::uint64_t bytes_committed = 0;
  std::uint64_t group_commits = 0;     // kAppendExtent frames written
  std::uint64_t blocks_opened = 0;
  std::uint64_t blocks_sealed = 0;
};

class Ingestor {
 public:
  // Creates `path` when it does not exist yet; appending to an existing
  // file continues its block list.
  Ingestor(MiniDfs& dfs, std::string path, IngestOptions options = {});
  ~Ingestor();
  Ingestor(const Ingestor&) = delete;
  Ingestor& operator=(const Ingestor&) = delete;

  // Buffer one record ('\n' is added); group-commits automatically every
  // group_records and seals a block when the record would overflow it.
  void append(std::string_view record);

  // Force the buffered group durable now (one journal frame), leaving the
  // current block open.
  void flush();

  // flush() + seal the current open block (if any). The next append opens a
  // fresh block. Called on every block-boundary crossing and by close().
  void seal();

  // seal() and detach; further appends throw. Idempotent; the destructor
  // calls it.
  void close();

  [[nodiscard]] const IngestStats& stats() const noexcept { return stats_; }

  // Invoked after each block seals (live map maintenance hook). Set before
  // appending; never invoked for blocks sealed by other writers.
  std::function<void(BlockId)> on_seal;

 private:
  [[nodiscard]] std::uint64_t open_bytes() const;

  MiniDfs* dfs_;  // null after close()
  std::string path_;
  IngestOptions options_;
  IngestStats stats_;
  bool block_open_ = false;
  BlockId block_ = 0;
  std::uint64_t block_bytes_ = 0;  // durable bytes in the open block
  std::string buffer_;             // records awaiting group commit
  std::uint64_t buffered_records_ = 0;
};

}  // namespace datanet::dfs
