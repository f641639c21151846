#include "dfs/meta_plane.hpp"

#include <utility>

#include "dfs/fs_image.hpp"

namespace datanet::dfs {

MetaPlane::MetaPlane(ClusterTopology topology, MetaPlaneOptions options) {
  if (options.num_shards == 0) {
    throw std::invalid_argument("MetaPlane: 0 shards");
  }
  shards_.reserve(options.num_shards);
  for (std::uint32_t s = 0; s < options.num_shards; ++s) {
    Shard sh;
    sh.dfs = std::make_shared<MiniDfs>(topology, options.dfs);
    shards_.push_back(std::move(sh));
  }
}

MetaPlane::Shard& MetaPlane::shard_at(std::uint32_t shard) {
  if (shard >= shards_.size()) {
    throw std::out_of_range("MetaPlane: shard " + std::to_string(shard) +
                            " out of range (have " +
                            std::to_string(shards_.size()) + ")");
  }
  return shards_[shard];
}

const MetaPlane::Shard& MetaPlane::shard_at(std::uint32_t shard) const {
  return const_cast<MetaPlane*>(this)->shard_at(shard);
}

MetaPlane::Shard& MetaPlane::live_shard(std::uint32_t shard) {
  Shard& sh = shard_at(shard);
  if (sh.crashed) {
    throw ShardUnavailableError(
        shard, "MetaPlane: shard " + std::to_string(shard) +
                   " is crashed (recover_shard to restore service)");
  }
  return sh;
}

const MetaPlane::Shard& MetaPlane::live_shard(std::uint32_t shard) const {
  return const_cast<MetaPlane*>(this)->live_shard(shard);
}

MiniDfs& MetaPlane::dfs(std::uint32_t shard) { return *live_shard(shard).dfs; }

const MiniDfs& MetaPlane::dfs(std::uint32_t shard) const {
  return *live_shard(shard).dfs;
}

MiniDfs& MetaPlane::dfs_for(std::string_view path) {
  return dfs(shard_of(path));
}

const MiniDfs& MetaPlane::dfs_for(std::string_view path) const {
  return dfs(shard_of(path));
}

std::shared_ptr<const MiniDfs> MetaPlane::dfs_snapshot(
    std::uint32_t shard) const {
  return shard_at(shard).dfs;
}

void MetaPlane::attach_journals(const std::string& workdir) {
  if (attached_) throw std::logic_error("MetaPlane: journals already attached");
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    Shard& sh = live_shard(s);
    sh.journal_path = workdir + "/shard" + std::to_string(s) + ".edits";
    sh.image_path = workdir + "/shard" + std::to_string(s) + ".fsimage";
    sh.journal = std::make_unique<EditLog>(sh.journal_path);
    sh.dfs->attach_edit_log(sh.journal.get());
    // Initial checkpoint: the pair (image covering the current namespace,
    // empty journal) is consistent, so a crash at any later point recovers.
    FsImage::save(*sh.dfs, sh.image_path);
  }
  attached_ = true;
}

const std::string& MetaPlane::journal_path(std::uint32_t shard) const {
  const Shard& sh = shard_at(shard);
  if (!attached_) throw std::logic_error("MetaPlane: journals not attached");
  return sh.journal_path;
}

void MetaPlane::crash_shard(std::uint32_t shard,
                            std::uint64_t journal_keep_bytes) {
  Shard& sh = live_shard(shard);
  if (!attached_) throw std::logic_error("MetaPlane: journals not attached");
  sh.dfs->crash_namenode(journal_keep_bytes);
  sh.crashed = true;
}

RecoveryInfo MetaPlane::recover_shard(std::uint32_t shard) {
  Shard& sh = shard_at(shard);
  if (!sh.crashed) {
    throw std::logic_error("MetaPlane: recover_shard on a live shard");
  }
  RecoveryInfo info;
  // Replay image + journal suffix FIRST — only then open a fresh journal
  // (the EditLog constructor truncates), attach it, and checkpoint so the
  // recovered shard's image/journal pair is consistent going forward. The
  // old MiniDfs stays alive for any dfs_snapshot holders still finishing a
  // degraded read; the swap only redirects future routing.
  auto recovered = std::make_shared<MiniDfs>(
      MiniDfs::recover(sh.image_path, sh.journal_path, &info));
  sh.dfs = std::move(recovered);
  sh.journal = std::make_unique<EditLog>(sh.journal_path);
  sh.dfs->attach_edit_log(sh.journal.get());
  FsImage::save(*sh.dfs, sh.image_path);
  sh.crashed = false;
  return info;
}

}  // namespace datanet::dfs
