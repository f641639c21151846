#pragma once
// dfs::MetaPlane — the sharded metadata plane. The namespace is partitioned
// across S metadata shards by path: shard_of(path) = hash_bytes(path) % S.
// A plane's shard count is fixed for its lifetime (a different --meta-shards
// builds a new plane), so there is no rebalancing to minimise and a plain
// modulo is the whole rule. A file's blocks all live on its owning shard, so
// per-file operations touch exactly one shard and BlockIds stay shard-local.
// Every shard is a full NameNode (a MiniDfs) with its OWN EditLog/FsImage
// pair, so crash and recovery are per-shard: one shard can be killed (the
// kCrashNameNode seam) and rebuilt from its own image + journal suffix while
// the other shards keep serving.
//
// Determinism: every shard is constructed over the same topology with the
// SAME DfsOptions (including the placement seed). A dataset ingested into a
// fresh plane therefore gets byte-identical block placement regardless of
// which shard owns it — which is what keeps fig5/fig8 selection digests
// byte-identical between a plain MiniDfs and a plane at ANY shard count, not
// just shard count 1 (each file is the first file of its owning shard's RNG
// stream, exactly as it is the first file of a fresh MiniDfs).
//
// Epochs: mutation_epoch generalizes for free — each shard's MiniDfs keeps
// its own counter, read as dfs(k).mutation_epoch(). Replica churn on one
// shard does not advance the epochs other shards' cached metadata was
// validated against; the server's dataset cache keys on the owning shard's
// epoch only.
//
// Concurrency: routing is a pure function of the path and the shard count.
// Each shard inherits MiniDfs's single-mutator/many-readers contract
// independently. crash_shard/recover_shard are mutator-side calls; readers
// of OTHER shards are unaffected, readers of the crashed shard must have
// drained (the plane refuses access to a crashed shard with a typed
// ShardUnavailableError until recover_shard brings it back).

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "dfs/edit_log.hpp"
#include "dfs/mini_dfs.hpp"

namespace datanet::dfs {

// Thrown when an operation routes to a shard that is crashed and not yet
// recovered. Callers that can degrade (serve other shards, retry later)
// catch this; everything else propagates it as a hard error.
class ShardUnavailableError : public std::runtime_error {
 public:
  ShardUnavailableError(std::uint32_t shard, std::string what)
      : std::runtime_error(std::move(what)), shard_id(shard) {}
  std::uint32_t shard_id;
};

struct MetaPlaneOptions {
  std::uint32_t num_shards = 1;
  // Shared by every shard — same seed on purpose (see file comment).
  DfsOptions dfs;
};

class MetaPlane {
 public:
  // Throws std::invalid_argument when options.num_shards is 0.
  MetaPlane(ClusterTopology topology, MetaPlaneOptions options);

  [[nodiscard]] std::uint32_t num_shards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }

  // ---- routing ----

  [[nodiscard]] std::uint32_t shard_of(std::string_view path) const noexcept {
    return static_cast<std::uint32_t>(common::hash_bytes(path) %
                                      shards_.size());
  }

  // Shard accessors throw std::out_of_range on a bad id and
  // ShardUnavailableError while the shard is crashed.
  [[nodiscard]] MiniDfs& dfs(std::uint32_t shard);
  [[nodiscard]] const MiniDfs& dfs(std::uint32_t shard) const;
  [[nodiscard]] MiniDfs& dfs_for(std::string_view path);
  [[nodiscard]] const MiniDfs& dfs_for(std::string_view path) const;

  // Degraded-mode access (PR 9): the shard's current in-memory state, with
  // NO crashed check. crash_shard kills the NameNode service (seals the
  // journal, refuses mutators and routed reads) but the block BYTES survive
  // — datanodes don't die with the NameNode — so a server that cached the
  // shard's metadata can keep answering read-only queries from this
  // snapshot. Returned as a shared_ptr: recover_shard swaps in a rebuilt
  // MiniDfs, and holders of the pre-crash snapshot must outlive that swap
  // safely. Callers MUST NOT mutate through this while the shard is down.
  [[nodiscard]] std::shared_ptr<const MiniDfs> dfs_snapshot(
      std::uint32_t shard) const;

  // ---- per-shard durability ----

  // Attach one write-ahead journal per shard under `workdir`
  // ("<workdir>/shard<k>.edits") and write an initial checkpoint per shard
  // ("<workdir>/shard<k>.fsimage"), so every shard has a consistent
  // image/journal pair from the moment durability is on — recover_shard is
  // legal at any later point.
  void attach_journals(const std::string& workdir);
  // Throws std::logic_error before attach_journals.
  [[nodiscard]] const std::string& journal_path(std::uint32_t shard) const;

  // Kill one shard's NameNode: seal (optionally tear) its journal and mark
  // the shard unavailable. Other shards are untouched.
  void crash_shard(std::uint32_t shard,
                   std::uint64_t journal_keep_bytes = MiniDfs::kKeepAllBytes);

  // Rebuild a crashed shard from its own FsImage + EditLog suffix, attach a
  // fresh journal, and re-checkpoint so the pair is consistent going
  // forward. Returns replay accounting. Throws std::logic_error unless the
  // shard is crashed.
  RecoveryInfo recover_shard(std::uint32_t shard);

 private:
  struct Shard {
    // shared_ptr, not unique_ptr: dfs_snapshot hands out read-only refs
    // that must survive the recover_shard swap (degraded serving).
    std::shared_ptr<MiniDfs> dfs;
    std::unique_ptr<EditLog> journal;
    std::string journal_path;
    std::string image_path;
    bool crashed = false;
  };

  [[nodiscard]] Shard& shard_at(std::uint32_t shard);
  [[nodiscard]] const Shard& shard_at(std::uint32_t shard) const;
  [[nodiscard]] Shard& live_shard(std::uint32_t shard);
  [[nodiscard]] const Shard& live_shard(std::uint32_t shard) const;

  std::vector<Shard> shards_;
  bool attached_ = false;
};

}  // namespace datanet::dfs
