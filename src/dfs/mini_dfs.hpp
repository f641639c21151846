#pragma once
// MiniDfs: an in-memory simulation of HDFS with exactly the properties the
// paper relies on — fixed-size blocks, r-way replication, a NameNode-style
// block->replica map, and per-node block inventories. Record lines never
// straddle a block boundary (Hadoop's line record reader presents the same
// record-complete view to map tasks).
//
// Failure model: every block carries a CRC32 checksum of its committed
// bytes, and each replica can be independently marked corrupt (a datanode
// copy going bad). Reads verify: read_block / read_replica_pinned throw
// BlockCorruptError on checksum failure, and report_corrupt_replica models
// the NameNode dropping a bad copy and re-replicating from a healthy one.
// corrupt_block / corrupt_replica are the test/fault-injection hooks.
//
// Concurrency contract (single mutator, many readers): one external mutator
// thread at a time (writers, fault hooks, ReplicationMonitor healing) may run
// against any number of concurrent reader threads. Namespace metadata is
// guarded by an internal shared_mutex; committed block BYTES never move
// (deque storage) and are mutated only by corrupt_block, which waits for
// outstanding read pins to drain first. Reader threads racing a mutator must
//   - read bytes through read_block_pinned / read_replica_pinned (the view
//     stays valid for the pin's lifetime), and
//   - take replica sets via replicas_snapshot (by value), not
//     block(id).replicas.
// Reference-returning accessors (block, blocks_of, blocks_on, read_block)
// hand out references that are only stable on the mutator thread or while
// the namespace is quiescent — the single-threaded idiom every offline
// builder, bench and test keeps using unchanged.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dfs/ingest.hpp"
#include "dfs/topology.hpp"

namespace datanet::dfs {

using BlockId = std::uint64_t;

// Thrown when a read touches data whose CRC32 no longer matches the checksum
// recorded at commit time (or a replica marked bad by fault injection).
class BlockCorruptError : public std::runtime_error {
 public:
  BlockCorruptError(BlockId id, std::string what)
      : std::runtime_error(std::move(what)), block_id(id) {}
  BlockId block_id;
};

struct BlockInfo {
  BlockId id = 0;
  std::string file;
  std::uint32_t index_in_file = 0;  // 0-based block ordinal within the file
  std::uint64_t size_bytes = 0;
  std::uint64_t num_records = 0;
  std::uint32_t checksum = 0;    // CRC32 of the block bytes at commit
  std::vector<NodeId> replicas;  // distinct nodes hosting a copy
};

// Snapshot of one open (unsealed) block: durable bytes that are not yet part
// of the query surface. Returned by open_blocks() for fsck and recovery
// audits.
struct OpenBlockInfo {
  BlockId id = 0;
  std::string file;
  std::uint64_t extents_applied = 0;  // group commits folded into the block
  std::uint64_t size_bytes = 0;
  std::uint64_t num_records = 0;
};

struct DfsOptions {
  std::uint64_t block_size = 1ull << 20;  // scaled-down stand-in for 64 MB
  std::uint32_t replication = 3;
  std::uint64_t seed = 42;
  // The healing policy. When true (the default), decommission and
  // report_corrupt_replica re-replicate inline, one-shot. When false the
  // NameNode only records the damage and a ReplicationMonitor is expected to
  // heal under-replication in the background (rate-limited, prioritized).
  // Both policies add replicas through the one re-replication primitive.
  bool inline_repair = true;
};

class MiniDfs;
class EditLog;
struct EditRecord;
class FsImage;

// RAII read pin on one block. While any pin is held, that block's bytes are
// neither mutated nor relocated, so zero-copy string_views into them stay
// valid even while a mutator thread heals, drops replicas, or tries to
// corrupt the block concurrently (corrupt_block blocks until pins drain).
// Move-only; releasing is lock-free, so pin holders can never deadlock a
// waiting mutator. A default-constructed pin holds nothing.
class BlockPin {
 public:
  BlockPin() noexcept = default;
  BlockPin(BlockPin&& other) noexcept
      : count_(std::exchange(other.count_, nullptr)) {}
  BlockPin& operator=(BlockPin&& other) noexcept {
    if (this != &other) {
      release();
      count_ = std::exchange(other.count_, nullptr);
    }
    return *this;
  }
  BlockPin(const BlockPin&) = delete;
  BlockPin& operator=(const BlockPin&) = delete;
  ~BlockPin() { release(); }

  [[nodiscard]] bool holds() const noexcept { return count_ != nullptr; }
  void release() noexcept {
    if (count_ != nullptr) {
      count_->fetch_sub(1, std::memory_order_release);
      count_ = nullptr;
    }
  }

 private:
  friend class MiniDfs;
  explicit BlockPin(std::atomic<std::uint32_t>* count) noexcept
      : count_(count) {}
  std::atomic<std::uint32_t>* count_ = nullptr;  // stable: deque element
};

// A pinned zero-copy read: `data` is valid exactly as long as `pin` is held.
struct PinnedRead {
  std::string_view data;
  BlockPin pin;
};

// Outcome of MiniDfs::recover beyond the rebuilt namespace itself.
struct RecoveryInfo {
  std::uint64_t replayed_frames = 0;  // journal suffix frames applied
  std::uint64_t skipped_frames = 0;   // frames already covered by the image
  std::uint64_t dropped_bytes = 0;    // torn tail discarded by replay
  bool torn = false;
};

class MiniDfs {
 public:
  // Blocks are placed by place_replicas (random placement, the regime
  // analyzed in Section II-B), drawing from an RNG seeded with options.seed.
  MiniDfs(ClusterTopology topology, DfsOptions options);

  // Make the empty file `path` (journaled as kCreateFile; throws
  // std::invalid_argument when it exists) and return its writer: an
  // Ingestor whose group is the whole block, so each block is written as
  // one extent when it seals.
  [[nodiscard]] Ingestor create(std::string path);

  [[nodiscard]] bool exists(std::string_view path) const;
  [[nodiscard]] const std::vector<BlockId>& blocks_of(std::string_view path) const;
  [[nodiscard]] const BlockInfo& block(BlockId id) const;
  // Read the logical block bytes; throws BlockCorruptError when the data no
  // longer matches its commit-time checksum (verification is memoized, so
  // the CRC is recomputed only after corruption hooks touch the block).
  [[nodiscard]] std::string_view read_block(BlockId id) const;
  [[nodiscard]] const std::vector<BlockId>& blocks_on(NodeId node) const;

  // ---- concurrent-reader API (see the contract in the file comment) ----

  // Pinned zero-copy reads: same errors as read_block, and the view is
  // guaranteed valid for the pin's lifetime even while the mutator thread
  // runs. read_replica_pinned reads through a specific replica, as a map
  // task on `node` (or fetching from it) would: it throws
  // std::invalid_argument unless `node` hosts the block and
  // BlockCorruptError when that copy is marked bad. Both refuse open
  // blocks. The concurrent selection path (datanetd jobs racing background
  // healing) reads through these.
  [[nodiscard]] PinnedRead read_block_pinned(BlockId id) const;
  [[nodiscard]] PinnedRead read_replica_pinned(BlockId id, NodeId node) const;

  // By-value copy of block(id).replicas, taken under the namespace lock —
  // the form of replica lookup that is safe against concurrent healing
  // (graph builders use this when jobs run against a live mutator).
  [[nodiscard]] std::vector<NodeId> replicas_snapshot(BlockId id) const;

  [[nodiscard]] const ClusterTopology& topology() const noexcept { return topology_; }
  [[nodiscard]] const DfsOptions& options() const noexcept { return options_; }
  [[nodiscard]] std::uint64_t num_blocks() const noexcept { return blocks_.size(); }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] std::vector<std::string> list_files() const;

  // True iff `node` hosts a replica of `id`.
  [[nodiscard]] bool is_local(BlockId id, NodeId node) const;

  // ---- block writes: open, append, seal ----
  //
  // The only way a block comes into being (Ingestor drives it; create()
  // returns one). An open block is a block whose bytes are durable —
  // placement is fixed and journaled at open, every append_extent is one
  // journaled group commit — but which is NOT yet part of the query
  // surface: blocks_of(), ElasticMap builds and selection see only sealed
  // blocks, so a reader racing ingestion always observes a committed prefix
  // of whole blocks. Open-block bytes may relocate on append, so pinned
  // zero-copy reads refuse open blocks; plain read_block works on the
  // mutator thread. All three mutators follow the single-mutator contract.

  // Allocate the next block id for `path` (which must exist), place its
  // replicas now, and journal the placement. The block starts empty.
  BlockId open_block(const std::string& path);

  // Append one group-committed extent (one journal frame + flush). `data`
  // is raw line-oriented bytes (records already '\n'-terminated). The
  // block's checksum is extended over the new bytes (CRC32 chains), so it
  // is always the CRC of the whole block and verify_block and checkpoints
  // stay uniform across open and sealed blocks.
  void append_extent(BlockId id, std::string_view data,
                     std::uint64_t num_records);

  // Publish the block into its file's block list (index_in_file assigned
  // here) and journal the seal with the final record count + checksum.
  void seal_block(BlockId id);

  [[nodiscard]] bool is_block_open(BlockId id) const;
  // Every open block, ascending by id.
  [[nodiscard]] std::vector<OpenBlockInfo> open_blocks() const;

  // ---- fault handling ----

  // Take a node out of service. Every replica it held is re-created on an
  // active node that does not already hold the block (NameNode
  // re-replication). Returns the ids of blocks whose LAST replica lived on
  // the node — with a single in-memory copy per block those are lost only
  // when replication = 1. Idempotent for already-inactive nodes.
  std::vector<BlockId> decommission(NodeId node);

  [[nodiscard]] bool is_active(NodeId node) const;
  [[nodiscard]] std::uint32_t num_active_nodes() const noexcept {
    return active_nodes_;
  }

  // O(1) count of under-replicated blocks, maintained incrementally at every
  // replica-set mutation. Matches dfs::fsck exactly: a block counts iff
  // 0 < replicas < min(target replication, active nodes) — so post-run
  // health reporting never rescans the namespace. Atomic: job reports read
  // it from reader threads while the monitor heals.
  [[nodiscard]] std::uint64_t under_replicated_count() const noexcept {
    return cs_->under_replicated.load(std::memory_order_relaxed);
  }

  // Monotone counter bumped by every mutation that can change replica
  // placement or health (commits, drops, repairs, moves, corruption marks).
  // ReplicationMonitor::scan compares it against the epoch of its last full
  // scan to skip whole-namespace rescans when nothing changed; the server's
  // dataset cache uses it for epoch-based invalidation. Atomic for the same
  // reader-vs-mutator reason as under_replicated_count.
  [[nodiscard]] std::uint64_t mutation_epoch() const noexcept {
    return cs_->mutation_epoch.load(std::memory_order_relaxed);
  }

  // Relocate one replica of `id` from `from` to `to` (replica churn).
  // Throws unless `from` hosts the block, `to` is an active node that does
  // not already host it. A corrupt source copy stays corrupt after the move.
  void move_replica(BlockId id, NodeId from, NodeId to);

  // ---- checksums & corruption ----

  // Fault hook: flip one byte of the stored block data, so every replica
  // fails verification (media corruption of the logical block).
  void corrupt_block(BlockId id);

  // Fault hook: mark the copy of `id` hosted on `node` as corrupt (a single
  // datanode's disk going bad). Throws unless `node` hosts the block.
  void corrupt_replica(BlockId id, NodeId node);

  // Recompute-and-compare the block's CRC32 (memoized until the next
  // corruption hook touches the block).
  [[nodiscard]] bool verify_block(BlockId id) const;

  // True iff `node` hosts `id`, is active, the copy is not marked corrupt,
  // and the block data passes verification.
  [[nodiscard]] bool replica_healthy(BlockId id, NodeId node) const;

  // NameNode reaction to a client-reported checksum failure: drop the bad
  // copy on `node` and (inline_repair only) re-replicate from a healthy
  // replica onto an active node that does not already host the block.
  // Returns true when a healthy replica remains afterwards; false means the
  // block is unreadable (every copy bad — with replication 1 or
  // corrupt_block).
  bool report_corrupt_replica(BlockId id, NodeId node);

  // Copy of the marked-corrupt node list for `id`, sorted (empty when every
  // copy is clean). Read by the ReplicationMonitor scrub pass and the CLI.
  [[nodiscard]] std::vector<NodeId> corrupt_replica_marks(BlockId id) const;

  // ---- crash recovery ----

  // Attach a write-ahead journal; every namespace mutation from here on is
  // appended (and flushed) before the in-memory state returns to the caller.
  // Non-owning: `log` must outlive the attachment. Pass nullptr to detach.
  void attach_edit_log(EditLog* log) noexcept { journal_ = log; }
  [[nodiscard]] EditLog* edit_log() const noexcept { return journal_; }

  static constexpr std::uint64_t kKeepAllBytes = ~0ull;
  // Kill the NameNode process: seal the attached journal (optionally tearing
  // its tail down to `journal_keep_bytes` — a crash mid-append) and detach
  // it. The in-memory object stays readable so tests can compare the live
  // namespace against what recover() rebuilds.
  void crash_namenode(std::uint64_t journal_keep_bytes = kKeepAllBytes);

  // Rebuild a NameNode from the last checkpoint plus the journal suffix:
  // FsImage::load(image_path), then apply every intact journal frame past the
  // offset the image covers. Torn tails are dropped, never thrown. The
  // recovered instance starts a fresh placement RNG — the namespace is
  // restored exactly, the RNG stream is not.
  [[nodiscard]] static MiniDfs recover(const std::string& image_path,
                                       const std::string& journal_path,
                                       RecoveryInfo* info = nullptr);

  // Order-insensitive digest of the durable namespace: files, block
  // metadata + bytes, sorted replica sets, and the active-node mask.
  // Corruption marks and verification memos are runtime health state and are
  // deliberately excluded (they are rediscovered by scanning, not recovered).
  [[nodiscard]] std::uint64_t namespace_digest() const;

  // ---- background healing primitive ----

  // Add one replica of `id` on an active non-hosting node (rereplicate).
  // Requires a healthy source copy. Returns the target node, or nullopt when
  // the block has no healthy source or no eligible target (then it is
  // unrepairable for now). Used by ReplicationMonitor.
  std::optional<NodeId> repair_block(BlockId id);

 private:
  friend class FsImage;
  friend class Ingestor;

  // Verification memo per block: 0 = unknown, 1 = ok, 2 = bad. Reset to
  // unknown by corrupt_block so the next read recomputes honestly.
  enum : std::uint8_t { kUnknown = 0, kOk = 1, kBad = 2 };

  // Cross-thread state. Boxed so MiniDfs stays movable (FsImage::load and
  // recover return by value); the box itself is never null and never moves
  // while readers run, so BlockPin can point straight at a pin counter.
  struct ConcurrencyState {
    // Readers take shared, the mutator takes unique. Public methods lock and
    // delegate to *_unlocked private helpers (shared_mutex is non-reentrant).
    mutable std::shared_mutex mu;
    // Per-block memos/pins live in deques: elements never move on growth, so
    // lock-free access through raw pointers/references stays valid.
    mutable std::deque<std::atomic<std::uint8_t>> verified;
    mutable std::deque<std::atomic<std::uint32_t>> pins;
    std::atomic<std::uint64_t> under_replicated{0};
    std::atomic<std::uint64_t> mutation_epoch{0};
  };

  // Per-open-block bookkeeping beyond what BlockInfo carries. Ordered map:
  // digest and open_blocks() iterate it deterministically.
  struct OpenBlockState {
    std::string file;
    std::uint64_t extents_applied = 0;
  };

  // The one step that makes a file: register `path` and journal
  // kCreateFile. Returns false, changing nothing, when it exists. Reached
  // from create() and the Ingestor constructor, so it locks like a public
  // mutator.
  bool make_file(const std::string& path);
  // Lock-free internals shared by the live mutators and apply_edit:
  // append_extent_impl is the one routine that appends bytes to a block,
  // seal_block_impl the one that publishes a block into its file.
  BlockId open_block_impl(const std::string& path,
                          std::vector<NodeId> replicas);
  void append_extent_impl(BlockId id, std::string_view data,
                          std::uint64_t num_records);
  void seal_block_impl(BlockId id);
  [[nodiscard]] bool replica_marked_corrupt(BlockId id, NodeId node) const;
  [[nodiscard]] bool is_local_unlocked(BlockId id, NodeId node) const;
  [[nodiscard]] bool verify_block_unlocked(BlockId id) const;
  [[nodiscard]] bool replica_healthy_unlocked(BlockId id, NodeId node) const;
  [[nodiscard]] std::string_view read_block_unlocked(BlockId id) const;
  // Grow the per-block runtime state (verify memo + pin counter) in step
  // with blocks_/block_data_; every block-adding path must call this.
  void push_block_runtime_state(std::uint8_t verified);
  // Journal one record iff a journal is attached.
  void log_edit(const EditRecord& record);
  // Replay-side interpreter: idempotent application of one journal record
  // (already-applied records are skipped, so checkpoint + full journal and
  // checkpoint + suffix converge to the same namespace).
  void apply_edit(const EditRecord& record);
  // Deactivate `node` and drop every replica it held (no re-replication, no
  // journaling); returns the blocks that were hosted there.
  std::vector<BlockId> drop_node(NodeId node);
  // Drop the copy of `id` on `node` (replica list, inventory, corruption
  // mark); returns false when `node` does not host the block.
  bool drop_replica(BlockId id, NodeId node);
  // Put a copy of `id` on `node`: replica list and inventory, bracketed by
  // the under-replication accounting. Shared by re-replication and replay.
  void add_replica(BlockId id, NodeId node);
  // The one re-replication primitive (inline repair and repair_block): add a
  // replica on a node drawn by place_replicas from the active nodes not
  // hosting `id`, and journal it as kAddReplica so replay never re-runs the
  // RNG. Returns the target, or nullopt when no node is eligible.
  std::optional<NodeId> rereplicate(BlockId id);
  void move_replica_impl(BlockId id, NodeId from, NodeId to);
  // Incremental under-replication accounting: bracket every replica-set
  // change with changing (before) / changed (after); recount when the
  // active-node count moves (the threshold shifts for every block at once).
  [[nodiscard]] bool is_under_replicated(BlockId id) const;
  void replicas_changing(BlockId id);
  void replicas_changed(BlockId id);
  void recount_under_replicated();

  ClusterTopology topology_;
  DfsOptions options_;
  common::Rng placement_rng_;

  // blocks_ and block_data_ are deques so committed BlockInfo records and
  // block bytes never relocate on namespace growth — the anchor for every
  // zero-copy view and pin handed out to concurrent readers.
  std::deque<BlockInfo> blocks_;        // BlockId == index
  std::deque<std::string> block_data_;  // BlockId -> bytes (one copy)
  std::unordered_map<std::string, std::vector<BlockId>> files_;
  std::vector<std::vector<BlockId>> node_blocks_;  // node -> hosted blocks
  std::vector<bool> node_active_;
  std::uint32_t active_nodes_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::unique_ptr<ConcurrencyState> cs_ =
      std::make_unique<ConcurrencyState>();
  // (block -> nodes whose copy is marked bad); sparse, fault-injection only.
  std::unordered_map<BlockId, std::vector<NodeId>> corrupt_replicas_;
  // Blocks opened but not yet sealed: present in blocks_/block_data_ (dense
  // ids) but absent from files_ until seal_block publishes them.
  std::map<BlockId, OpenBlockState> open_blocks_;
  EditLog* journal_ = nullptr;  // non-owning; nullptr = no durability
};

}  // namespace datanet::dfs
