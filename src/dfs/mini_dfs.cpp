#include "dfs/mini_dfs.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/hash.hpp"
#include "dfs/edit_log.hpp"

namespace datanet::dfs {

// Locking discipline (see the contract in mini_dfs.hpp): public readers take
// a shared lock on cs_->mu and delegate to *_unlocked helpers; public
// mutators take a unique lock. Private helpers never lock — they are only
// reached with the appropriate lock already held (or from single-threaded
// recovery) — except make_file, which the Ingestor constructor reaches
// unlocked and so locks like a public mutator. shared_mutex is
// non-reentrant, so public methods must not call other locking public
// methods.

MiniDfs::MiniDfs(ClusterTopology topology, DfsOptions options)
    : topology_(std::move(topology)),
      options_(options),
      placement_rng_(options.seed) {
  if (options_.block_size == 0) throw std::invalid_argument("block_size == 0");
  if (options_.replication == 0) throw std::invalid_argument("replication == 0");
  if (options_.replication > topology_.num_nodes()) {
    throw std::invalid_argument("replication exceeds cluster size");
  }
  node_blocks_.resize(topology_.num_nodes());
  node_active_.assign(topology_.num_nodes(), true);
  active_nodes_ = topology_.num_nodes();
}

void MiniDfs::push_block_runtime_state(std::uint8_t verified) {
  cs_->verified.emplace_back(verified);
  cs_->pins.emplace_back(0);
}

bool MiniDfs::make_file(const std::string& path) {
  std::unique_lock lock(cs_->mu);
  if (!files_.emplace(path, std::vector<BlockId>{}).second) return false;
  log_edit({.op = EditOp::kCreateFile, .file = path});
  return true;
}

Ingestor MiniDfs::create(std::string path) {
  if (!make_file(path)) throw std::invalid_argument("file exists: " + path);
  return Ingestor(*this, std::move(path),
                  {.group_records = std::numeric_limits<std::uint64_t>::max()});
}

// ---- block writes: open, append, seal ----

BlockId MiniDfs::open_block_impl(const std::string& path,
                                 std::vector<NodeId> replicas) {
  const BlockId id = blocks_.size();
  BlockInfo info;
  info.id = id;
  info.file = path;
  info.index_in_file = 0;  // assigned when the block seals
  info.checksum = common::crc32(std::string_view{});
  info.replicas = std::move(replicas);
  for (const NodeId n : info.replicas) node_blocks_[n].push_back(id);
  blocks_.push_back(std::move(info));
  block_data_.emplace_back();
  push_block_runtime_state(kOk);  // empty bytes match the empty-CRC
  open_blocks_.emplace(id, OpenBlockState{path, 0});
  replicas_changed(id);
  return id;
}

BlockId MiniDfs::open_block(const std::string& path) {
  std::unique_lock lock(cs_->mu);
  if (!files_.contains(path)) {
    throw std::out_of_range("open_block: no such file: " + path);
  }
  if (active_nodes_ == 0) {
    throw std::runtime_error("MiniDfs: no active nodes to place a block on");
  }
  // After failures the cluster may no longer support the configured
  // replication; like HDFS, write with as many replicas as fit rather than
  // failing the write.
  const std::uint32_t replication =
      std::min(options_.replication, active_nodes_);
  const BlockId id = open_block_impl(
      path, place_replicas(node_active_, replication, placement_rng_));
  // Placement is journaled explicitly so replay never re-runs the RNG.
  log_edit({.op = EditOp::kOpenBlock,
            .file = path,
            .block = id,
            .replicas = blocks_[id].replicas});
  return id;
}

void MiniDfs::append_extent_impl(BlockId id, std::string_view data,
                                 std::uint64_t num_records) {
  auto& state = open_blocks_.at(id);
  block_data_[id].append(data);
  BlockInfo& b = blocks_[id];
  b.size_bytes += data.size();
  b.num_records += num_records;
  // The running CRC keeps verify_block and checkpoints uniform across open
  // and sealed blocks at every group-commit boundary. It is chained over the
  // new extent only, so each block byte is hashed once per write or replay.
  b.checksum = common::crc32(data, b.checksum);
  total_bytes_ += data.size();
  ++state.extents_applied;
  cs_->verified[id].store(kOk, std::memory_order_release);
  cs_->mutation_epoch.fetch_add(1, std::memory_order_relaxed);
}

void MiniDfs::append_extent(BlockId id, std::string_view data,
                            std::uint64_t num_records) {
  std::unique_lock lock(cs_->mu);
  const auto it = open_blocks_.find(id);
  if (it == open_blocks_.end()) {
    throw std::invalid_argument("append_extent: block not open");
  }
  const std::uint64_t seq = it->second.extents_applied;
  append_extent_impl(id, data, num_records);
  // The record copies the extent; build it only when it is journaled.
  if (journal_ != nullptr) {
    log_edit({.op = EditOp::kAppendExtent,
              .block = id,
              .num_records = num_records,
              .data = std::string(data),
              .extent_seq = seq});
  }
}

void MiniDfs::seal_block_impl(BlockId id) {
  const auto it = open_blocks_.find(id);
  BlockInfo& b = blocks_[id];
  auto& file_blocks = files_.at(it->second.file);
  b.index_in_file = static_cast<std::uint32_t>(file_blocks.size());
  file_blocks.push_back(id);
  open_blocks_.erase(it);
  cs_->mutation_epoch.fetch_add(1, std::memory_order_relaxed);
}

void MiniDfs::seal_block(BlockId id) {
  std::unique_lock lock(cs_->mu);
  if (!open_blocks_.contains(id)) {
    throw std::invalid_argument("seal_block: block not open");
  }
  seal_block_impl(id);
  // The final count + CRC ride on the seal frame so audits (fsck) can check
  // stored bytes against what the journal committed.
  log_edit({.op = EditOp::kSealBlock,
            .block = id,
            .num_records = blocks_[id].num_records,
            .checksum = blocks_[id].checksum});
}

bool MiniDfs::is_block_open(BlockId id) const {
  std::shared_lock lock(cs_->mu);
  return open_blocks_.contains(id);
}

std::vector<OpenBlockInfo> MiniDfs::open_blocks() const {
  std::shared_lock lock(cs_->mu);
  std::vector<OpenBlockInfo> out;
  out.reserve(open_blocks_.size());
  for (const auto& [id, state] : open_blocks_) {
    const BlockInfo& b = blocks_[id];
    out.push_back({.id = id,
                   .file = state.file,
                   .extents_applied = state.extents_applied,
                   .size_bytes = b.size_bytes,
                   .num_records = b.num_records});
  }
  return out;
}

bool MiniDfs::exists(std::string_view path) const {
  std::shared_lock lock(cs_->mu);
  return files_.contains(std::string(path));
}

const std::vector<BlockId>& MiniDfs::blocks_of(std::string_view path) const {
  std::shared_lock lock(cs_->mu);
  const auto it = files_.find(std::string(path));
  if (it == files_.end()) throw std::out_of_range("no such file: " + std::string(path));
  return it->second;
}

const BlockInfo& MiniDfs::block(BlockId id) const {
  std::shared_lock lock(cs_->mu);
  if (id >= blocks_.size()) throw std::out_of_range("bad block id");
  return blocks_[id];
}

std::string_view MiniDfs::read_block_unlocked(BlockId id) const {
  if (id >= block_data_.size()) throw std::out_of_range("bad block id");
  if (!verify_block_unlocked(id)) {
    throw BlockCorruptError(id, "read_block: checksum mismatch on block " +
                                    std::to_string(id));
  }
  return block_data_[id];
}

std::string_view MiniDfs::read_block(BlockId id) const {
  std::shared_lock lock(cs_->mu);
  return read_block_unlocked(id);
}

PinnedRead MiniDfs::read_block_pinned(BlockId id) const {
  std::shared_lock lock(cs_->mu);
  if (open_blocks_.contains(id)) {
    // Open-block bytes relocate on append, so no zero-copy view can be
    // guaranteed stable: readers only ever see sealed blocks.
    throw std::invalid_argument("read_block_pinned: block is open");
  }
  const std::string_view data = read_block_unlocked(id);
  // The shared lock orders this increment against any mutator: a mutator
  // that could invalidate the bytes takes the unique lock first and then
  // waits for the count to drain, so relaxed suffices here (the release is
  // on the unpin side).
  cs_->pins[id].fetch_add(1, std::memory_order_relaxed);
  return {data, BlockPin(&cs_->pins[id])};
}

PinnedRead MiniDfs::read_replica_pinned(BlockId id, NodeId node) const {
  std::shared_lock lock(cs_->mu);
  if (id >= block_data_.size()) {
    throw std::out_of_range("read_replica: bad block");
  }
  if (open_blocks_.contains(id)) {
    throw std::invalid_argument("read_replica_pinned: block is open");
  }
  if (!is_local_unlocked(id, node)) {
    throw std::invalid_argument("read_replica: node does not host block");
  }
  if (replica_marked_corrupt(id, node)) {
    throw BlockCorruptError(id, "read_replica: corrupt copy of block " +
                                    std::to_string(id) + " on node " +
                                    std::to_string(node));
  }
  const std::string_view data = read_block_unlocked(id);
  cs_->pins[id].fetch_add(1, std::memory_order_relaxed);
  return {data, BlockPin(&cs_->pins[id])};
}

std::vector<NodeId> MiniDfs::replicas_snapshot(BlockId id) const {
  std::shared_lock lock(cs_->mu);
  if (id >= blocks_.size()) throw std::out_of_range("bad block id");
  return blocks_[id].replicas;
}

const std::vector<BlockId>& MiniDfs::blocks_on(NodeId node) const {
  std::shared_lock lock(cs_->mu);
  if (node >= node_blocks_.size()) throw std::out_of_range("bad node id");
  return node_blocks_[node];
}

std::vector<std::string> MiniDfs::list_files() const {
  std::shared_lock lock(cs_->mu);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, _] : files_) names.push_back(name);
  return names;
}

bool MiniDfs::is_local_unlocked(BlockId id, NodeId node) const {
  if (id >= blocks_.size()) throw std::out_of_range("bad block id");
  const auto& reps = blocks_[id].replicas;
  return std::find(reps.begin(), reps.end(), node) != reps.end();
}

bool MiniDfs::is_local(BlockId id, NodeId node) const {
  std::shared_lock lock(cs_->mu);
  return is_local_unlocked(id, node);
}

bool MiniDfs::is_active(NodeId node) const {
  std::shared_lock lock(cs_->mu);
  if (node >= node_active_.size()) throw std::out_of_range("is_active: bad node");
  return node_active_[node];
}

void MiniDfs::move_replica(BlockId id, NodeId from, NodeId to) {
  std::unique_lock lock(cs_->mu);
  if (id >= blocks_.size()) throw std::out_of_range("move_replica: bad block");
  if (from >= node_blocks_.size() || to >= node_blocks_.size()) {
    throw std::out_of_range("move_replica: bad node");
  }
  if (!node_active_[to]) {
    throw std::invalid_argument("move_replica: target node inactive");
  }
  const auto& reps = blocks_[id].replicas;
  if (std::find(reps.begin(), reps.end(), from) == reps.end()) {
    throw std::invalid_argument("move_replica: source does not host block");
  }
  if (std::find(reps.begin(), reps.end(), to) != reps.end()) {
    throw std::invalid_argument("move_replica: target already hosts block");
  }
  move_replica_impl(id, from, to);
  log_edit({.op = EditOp::kMoveReplica, .block = id, .node = from, .node2 = to});
}

void MiniDfs::move_replica_impl(BlockId id, NodeId from, NodeId to) {
  auto& reps = blocks_[id].replicas;
  *std::find(reps.begin(), reps.end(), from) = to;
  auto& from_inv = node_blocks_[from];
  from_inv.erase(std::remove(from_inv.begin(), from_inv.end(), id),
                 from_inv.end());
  node_blocks_[to].push_back(id);
  // The new copy is made from the source copy, so a bad source stays bad.
  if (replica_marked_corrupt(id, from)) {
    auto& marks = corrupt_replicas_[id];
    std::replace(marks.begin(), marks.end(), from, to);
  }
  // Replica count unchanged, placement not.
  cs_->mutation_epoch.fetch_add(1, std::memory_order_relaxed);
}

std::vector<BlockId> MiniDfs::drop_node(NodeId node) {
  node_active_[node] = false;
  --active_nodes_;
  const std::vector<BlockId> hosted = std::move(node_blocks_[node]);
  node_blocks_[node].clear();
  for (const BlockId id : hosted) {
    auto& reps = blocks_[id].replicas;
    reps.erase(std::remove(reps.begin(), reps.end(), node), reps.end());
    // The node's copy is gone; so is any corruption mark on it.
    if (auto it = corrupt_replicas_.find(id); it != corrupt_replicas_.end()) {
      auto& marks = it->second;
      marks.erase(std::remove(marks.begin(), marks.end(), node), marks.end());
      if (marks.empty()) corrupt_replicas_.erase(it);
    }
  }
  // active_nodes_ moved: the under-replication threshold shifted for every
  // block, so the incremental count must be rebuilt.
  recount_under_replicated();
  return hosted;
}

void MiniDfs::add_replica(BlockId id, NodeId node) {
  replicas_changing(id);
  blocks_[id].replicas.push_back(node);
  node_blocks_[node].push_back(id);
  replicas_changed(id);
}

std::optional<NodeId> MiniDfs::rereplicate(BlockId id) {
  std::vector<bool> eligible = node_active_;
  for (const NodeId n : blocks_[id].replicas) eligible[n] = false;
  if (std::find(eligible.begin(), eligible.end(), true) == eligible.end()) {
    return std::nullopt;
  }
  const NodeId target = place_replicas(eligible, 1, placement_rng_)[0];
  add_replica(id, target);
  log_edit({.op = EditOp::kAddReplica, .block = id, .node = target});
  return target;
}

std::vector<BlockId> MiniDfs::decommission(NodeId node) {
  std::unique_lock lock(cs_->mu);
  if (node >= node_active_.size()) {
    throw std::out_of_range("decommission: bad node");
  }
  if (!node_active_[node]) return {};
  const std::vector<BlockId> hosted = drop_node(node);
  // One kDecommission frame stands for the whole strip; inline repairs are
  // journaled as explicit kAddReplica frames so replay never re-runs the
  // placement RNG.
  log_edit({.op = EditOp::kDecommission, .node = node});

  std::vector<BlockId> lost;
  for (const BlockId id : hosted) {
    if (blocks_[id].replicas.empty()) {
      lost.push_back(id);  // no surviving copy to re-replicate from
    } else if (options_.inline_repair) {
      // No eligible target leaves the block under-replicated, not lost.
      (void)rereplicate(id);
    }
  }
  return lost;
}

// ---- under-replication accounting ----

bool MiniDfs::is_under_replicated(BlockId id) const {
  const std::size_t n = blocks_[id].replicas.size();
  return n > 0 &&
         n < std::min<std::size_t>(options_.replication, active_nodes_);
}

void MiniDfs::replicas_changing(BlockId id) {
  if (is_under_replicated(id)) {
    cs_->under_replicated.fetch_sub(1, std::memory_order_relaxed);
  }
}

void MiniDfs::replicas_changed(BlockId id) {
  if (is_under_replicated(id)) {
    cs_->under_replicated.fetch_add(1, std::memory_order_relaxed);
  }
  cs_->mutation_epoch.fetch_add(1, std::memory_order_relaxed);
}

void MiniDfs::recount_under_replicated() {
  std::uint64_t count = 0;
  for (BlockId id = 0; id < blocks_.size(); ++id) {
    if (is_under_replicated(id)) ++count;
  }
  cs_->under_replicated.store(count, std::memory_order_relaxed);
  cs_->mutation_epoch.fetch_add(1, std::memory_order_relaxed);
}

// ---- checksums & corruption ----

void MiniDfs::corrupt_block(BlockId id) {
  std::unique_lock lock(cs_->mu);
  if (id >= block_data_.size()) throw std::out_of_range("corrupt_block: bad block");
  if (open_blocks_.contains(id)) {
    // An open block's running CRC is trusted without a rehash (each append
    // marks it verified), so a flip would go unseen; open blocks are not a
    // corruption target.
    throw std::invalid_argument("corrupt_block: block is open");
  }
  auto& data = block_data_[id];
  if (data.empty()) return;  // nothing to corrupt
  // The one post-commit byte mutation in the system: wait out every pinned
  // zero-copy reader first. New pins need the shared lock (which we hold
  // uniquely), so the count can only fall; unpinning is lock-free, so this
  // wait cannot deadlock against readers.
  while (cs_->pins[id].load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x40);
  // Next read recomputes and fails.
  cs_->verified[id].store(kUnknown, std::memory_order_release);
  // Health changed; scrubbers must re-look.
  cs_->mutation_epoch.fetch_add(1, std::memory_order_relaxed);
}

void MiniDfs::corrupt_replica(BlockId id, NodeId node) {
  std::unique_lock lock(cs_->mu);
  if (id >= blocks_.size()) throw std::out_of_range("corrupt_replica: bad block");
  if (!is_local_unlocked(id, node)) {
    throw std::invalid_argument("corrupt_replica: node does not host block");
  }
  auto& marks = corrupt_replicas_[id];
  if (std::find(marks.begin(), marks.end(), node) == marks.end()) {
    marks.push_back(node);
    // Health changed; scrubbers must re-look.
    cs_->mutation_epoch.fetch_add(1, std::memory_order_relaxed);
  }
}

bool MiniDfs::verify_block_unlocked(BlockId id) const {
  if (id >= block_data_.size()) throw std::out_of_range("verify_block: bad block");
  auto& memo = cs_->verified[id];
  std::uint8_t v = memo.load(std::memory_order_acquire);
  if (v == kUnknown) {
    // Concurrent readers may race the recompute; they derive the same value
    // from the same bytes (byte flips require the unique lock), so the
    // last-writer-wins store is benign.
    v = common::crc32(block_data_[id]) == blocks_[id].checksum ? kOk : kBad;
    memo.store(v, std::memory_order_release);
  }
  return v == kOk;
}

bool MiniDfs::verify_block(BlockId id) const {
  std::shared_lock lock(cs_->mu);
  return verify_block_unlocked(id);
}

bool MiniDfs::replica_marked_corrupt(BlockId id, NodeId node) const {
  const auto it = corrupt_replicas_.find(id);
  if (it == corrupt_replicas_.end()) return false;
  return std::find(it->second.begin(), it->second.end(), node) != it->second.end();
}

bool MiniDfs::replica_healthy_unlocked(BlockId id, NodeId node) const {
  if (id >= blocks_.size()) throw std::out_of_range("replica_healthy: bad block");
  if (node >= node_active_.size()) {
    throw std::out_of_range("replica_healthy: bad node");
  }
  return node_active_[node] && is_local_unlocked(id, node) &&
         !replica_marked_corrupt(id, node) && verify_block_unlocked(id);
}

bool MiniDfs::replica_healthy(BlockId id, NodeId node) const {
  std::shared_lock lock(cs_->mu);
  return replica_healthy_unlocked(id, node);
}

bool MiniDfs::drop_replica(BlockId id, NodeId node) {
  auto& reps = blocks_[id].replicas;
  const auto it = std::find(reps.begin(), reps.end(), node);
  if (it == reps.end()) return false;
  replicas_changing(id);
  reps.erase(it);
  auto& inv = node_blocks_[node];
  inv.erase(std::remove(inv.begin(), inv.end(), id), inv.end());
  if (auto mit = corrupt_replicas_.find(id); mit != corrupt_replicas_.end()) {
    auto& marks = mit->second;
    marks.erase(std::remove(marks.begin(), marks.end(), node), marks.end());
    if (marks.empty()) corrupt_replicas_.erase(mit);
  }
  replicas_changed(id);
  return true;
}

bool MiniDfs::report_corrupt_replica(BlockId id, NodeId node) {
  std::unique_lock lock(cs_->mu);
  if (id >= blocks_.size()) {
    throw std::out_of_range("report_corrupt_replica: bad block");
  }
  if (!is_local_unlocked(id, node)) {
    throw std::invalid_argument("report_corrupt_replica: node does not host block");
  }
  // Drop the bad copy.
  drop_replica(id, node);
  log_edit({.op = EditOp::kRemoveReplica, .block = id, .node = node});

  // Media corruption of the logical bytes: no healthy source exists.
  if (!verify_block_unlocked(id)) return false;

  const auto& reps = blocks_[id].replicas;
  // A healthy, active source replica must remain to copy from.
  const bool have_source =
      std::any_of(reps.begin(), reps.end(),
                  [&](NodeId n) { return replica_healthy_unlocked(id, n); });
  if (!have_source) return false;

  if (options_.inline_repair) (void)rereplicate(id);
  return true;
}

std::vector<NodeId> MiniDfs::corrupt_replica_marks(BlockId id) const {
  std::shared_lock lock(cs_->mu);
  if (id >= blocks_.size()) {
    throw std::out_of_range("corrupt_replica_marks: bad block");
  }
  const auto it = corrupt_replicas_.find(id);
  if (it == corrupt_replicas_.end()) return {};
  std::vector<NodeId> marks = it->second;
  std::sort(marks.begin(), marks.end());
  return marks;
}

std::optional<NodeId> MiniDfs::repair_block(BlockId id) {
  std::unique_lock lock(cs_->mu);
  if (id >= blocks_.size()) throw std::out_of_range("repair_block: bad block");
  const auto& reps = blocks_[id].replicas;
  const bool have_source =
      std::any_of(reps.begin(), reps.end(),
                  [&](NodeId n) { return replica_healthy_unlocked(id, n); });
  if (!have_source) return std::nullopt;
  return rereplicate(id);
}

// ---- crash recovery ----

void MiniDfs::log_edit(const EditRecord& record) {
  if (journal_ != nullptr) journal_->append(record);
}

void MiniDfs::crash_namenode(std::uint64_t journal_keep_bytes) {
  std::unique_lock lock(cs_->mu);
  if (journal_ == nullptr) {
    throw std::logic_error("crash_namenode: no journal attached");
  }
  if (journal_keep_bytes == kKeepAllBytes) {
    journal_->seal();
  } else {
    journal_->crash_truncate(journal_keep_bytes);
  }
  journal_ = nullptr;
}

void MiniDfs::apply_edit(const EditRecord& record) {
  // Recovery-time only: the instance under reconstruction is owned by one
  // thread, so no locking — but the shared unlocked helpers keep behaviour
  // identical to the live mutation paths.
  switch (record.op) {
    case EditOp::kCreateFile:
      if (!files_.contains(record.file)) {
        files_.emplace(record.file, std::vector<BlockId>{});
      }
      break;
    case EditOp::kDecommission:
      if (node_active_[record.node]) drop_node(record.node);
      break;
    case EditOp::kRemoveReplica:
      if (is_local_unlocked(record.block, record.node)) {
        drop_replica(record.block, record.node);
      }
      break;
    case EditOp::kAddReplica:
      if (!is_local_unlocked(record.block, record.node)) {
        add_replica(record.block, record.node);
      }
      break;
    case EditOp::kMoveReplica:
      if (is_local_unlocked(record.block, record.node) &&
          !is_local_unlocked(record.block, record.node2)) {
        move_replica_impl(record.block, record.node, record.node2);
      }
      break;
    case EditOp::kOpenBlock: {
      if (record.block < blocks_.size()) break;  // already applied
      if (record.block > blocks_.size()) {
        throw std::runtime_error("apply_edit: block id gap in journal");
      }
      if (!files_.contains(record.file)) {
        files_.emplace(record.file, std::vector<BlockId>{});
      }
      open_block_impl(record.file, record.replicas);
      break;
    }
    case EditOp::kAppendExtent: {
      if (record.block >= blocks_.size()) {
        throw std::runtime_error("apply_edit: extent for unknown block");
      }
      const auto it = open_blocks_.find(record.block);
      if (it == open_blocks_.end()) break;  // block already sealed
      if (record.extent_seq < it->second.extents_applied) break;  // applied
      if (record.extent_seq > it->second.extents_applied) {
        throw std::runtime_error("apply_edit: extent sequence gap");
      }
      append_extent_impl(record.block, record.data, record.num_records);
      break;
    }
    case EditOp::kSealBlock: {
      if (!open_blocks_.contains(record.block)) break;  // already sealed
      // The seal frame is the block's commit-time count and CRC: replayed
      // extents that disagree with it are a corrupt journal, not a block.
      const BlockInfo& b = blocks_[record.block];
      if (record.num_records != b.num_records) {
        throw std::runtime_error("apply_edit: seal record count mismatch");
      }
      if (record.checksum != b.checksum) {
        throw std::runtime_error("apply_edit: seal checksum mismatch");
      }
      seal_block_impl(record.block);
      break;
    }
  }
}

std::uint64_t MiniDfs::namespace_digest() const {
  std::shared_lock lock(cs_->mu);
  std::uint64_t h = common::hash_bytes("minidfs-namespace-v2");
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, _] : files_) names.push_back(name);
  std::sort(names.begin(), names.end());
  h = common::hash_combine(h, names.size());
  for (const std::string& name : names) {
    h = common::hash_combine(h, common::hash_bytes(name));
    for (const BlockId id : files_.at(name)) {
      const BlockInfo& b = blocks_[id];
      h = common::hash_combine(h, b.id);
      h = common::hash_combine(h, b.index_in_file);
      h = common::hash_combine(h, b.size_bytes);
      h = common::hash_combine(h, b.num_records);
      h = common::hash_combine(h, b.checksum);
      std::vector<NodeId> reps = b.replicas;
      std::sort(reps.begin(), reps.end());
      h = common::hash_combine(h, reps.size());
      for (const NodeId n : reps) h = common::hash_combine(h, n);
      h = common::hash_combine(h, common::hash_bytes(block_data_[id]));
    }
  }
  // Open blocks are durable state too: a recovered NameNode must restore
  // them (bytes, extent count, placement) exactly up to the last committed
  // group, so the digest covers them alongside the sealed namespace.
  h = common::hash_combine(h, open_blocks_.size());
  for (const auto& [id, state] : open_blocks_) {
    const BlockInfo& b = blocks_[id];
    h = common::hash_combine(h, id);
    h = common::hash_combine(h, common::hash_bytes(state.file));
    h = common::hash_combine(h, state.extents_applied);
    h = common::hash_combine(h, b.size_bytes);
    h = common::hash_combine(h, b.num_records);
    h = common::hash_combine(h, b.checksum);
    std::vector<NodeId> reps = b.replicas;
    std::sort(reps.begin(), reps.end());
    h = common::hash_combine(h, reps.size());
    for (const NodeId n : reps) h = common::hash_combine(h, n);
    h = common::hash_combine(h, common::hash_bytes(block_data_[id]));
  }
  for (const bool active : node_active_) {
    h = common::hash_combine(h, active ? 1 : 0);
  }
  return h;
}

}  // namespace datanet::dfs
