#pragma once
// dfs::EditLog — a CRC-framed write-ahead journal of NameNode namespace
// mutations (the HDFS edits file). MiniDfs appends one logical record per
// durable mutation: file creation, block open/extent/seal (the extents carry
// the block payload — MiniDfs keeps the one in-memory copy of block bytes
// that stands in for the datanode plane, so the journal must carry it for a
// recovered NameNode to serve reads), decommissions, and every replica
// add/remove/move including re-replication repairs.
//
// On-disk format: a sequence of frames
//   [u32 payload_len][u32 crc32(payload)][payload]
// appended with a flush per record. Replay is torn-tail tolerant: it stops
// cleanly at the first frame whose header is short, whose length overruns the
// file, or whose CRC mismatches — a crash mid-append loses at most the frame
// being written, never the prefix. crash_truncate() is the deterministic
// torn-write hook used by FaultKind::kCrashNameNode and the recovery tests.

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "dfs/topology.hpp"

namespace datanet::dfs {

using BlockId = std::uint64_t;  // same alias as mini_dfs.hpp (no cycle)

// Opcode 2 is retired and must not be reused: decode rejects it like any
// unknown opcode, so a journal that carries it fails typed, not misparsed.
enum class EditOp : std::uint8_t {
  kCreateFile = 1,     // file
  kDecommission = 3,   // node leaves service; its replicas are dropped
  kRemoveReplica = 4,  // block, node (corrupt copy dropped by the NameNode)
  kAddReplica = 5,     // block, node (re-replication / monitor repair)
  kMoveReplica = 6,    // block, node -> node2 (replica move)
  // Every block is journaled in three acts so a crash at any byte leaves a
  // replayable prefix: placement is fixed at open (replicas journaled
  // explicitly — replay never re-runs the RNG), each group commit is one
  // kAppendExtent frame, and seal publishes the block into its file's block
  // list. Replay checks the seal's count and CRC against the extents.
  kOpenBlock = 7,      // block, file, replicas
  kAppendExtent = 8,   // block, extent_seq, num_records, data
  kSealBlock = 9,      // block, num_records, checksum
};

struct EditRecord {
  EditOp op = EditOp::kCreateFile;
  std::string file;               // kCreateFile / kOpenBlock
  BlockId block = 0;              // block-scoped ops
  std::uint64_t num_records = 0;  // kAppendExtent / kSealBlock
  std::uint32_t checksum = 0;     // kSealBlock: CRC32 of the block bytes
  NodeId node = 0;                // node-scoped ops; kMoveReplica source
  NodeId node2 = 0;               // kMoveReplica target
  std::vector<NodeId> replicas;   // kOpenBlock initial placement
  std::string data;               // kAppendExtent bytes
  std::uint64_t extent_seq = 0;   // kAppendExtent: 0-based per-block index
};

class EditLog {
 public:
  // Creates/truncates `path` and opens it for appends.
  explicit EditLog(std::string path);

  // Frame, append, and flush one record. Throws std::logic_error after a
  // seal/crash (the NameNode process is gone) and std::runtime_error when the
  // filesystem write fails.
  void append(const EditRecord& record);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }
  [[nodiscard]] bool sealed() const noexcept { return sealed_; }

  // Crash seams. seal() models a clean NameNode death: the durable tail stays
  // whole but no further mutation will ever be journaled. crash_truncate()
  // additionally tears the on-disk file down to `keep_bytes` — a partially
  // flushed final frame — before sealing.
  void seal();
  void crash_truncate(std::uint64_t keep_bytes);

  struct Replay {
    std::vector<EditRecord> records;       // every intact frame, in order
    std::vector<std::uint64_t> frame_ends; // file offset after each frame
    std::uint64_t valid_bytes = 0;         // prefix consumed as intact frames
    std::uint64_t dropped_bytes = 0;       // torn tail discarded
    bool torn = false;
  };

  // Read every intact frame of `path`; never throws on a torn tail (only on
  // an unreadable file). A missing file replays as zero records — recovery
  // from a checkpoint alone is legal.
  [[nodiscard]] static Replay replay(const std::string& path);

  // Payload (de)serialization without the frame header; exposed for tests.
  [[nodiscard]] static std::string encode(const EditRecord& record);
  [[nodiscard]] static EditRecord decode(std::string_view payload);

 private:
  std::string path_;
  std::ofstream file_;
  std::uint64_t bytes_written_ = 0;
  bool sealed_ = false;
};

}  // namespace datanet::dfs
