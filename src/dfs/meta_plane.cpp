#include "dfs/meta_plane.hpp"

#include <algorithm>
#include <utility>

#include "common/hash.hpp"
#include "dfs/fs_image.hpp"

namespace datanet::dfs {

MetaPlane::MetaPlane(ClusterTopology topology, MetaPlaneOptions options)
    : options_(options),
      ring_(options.num_shards, options.vnodes_per_shard, options.ring_seed) {
  shards_.reserve(options_.num_shards);
  for (std::uint32_t s = 0; s < options_.num_shards; ++s) {
    Shard sh;
    sh.dfs = std::make_shared<MiniDfs>(topology, options_.dfs);
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

bool MetaPlane::exists(std::string_view path) const {
  return dfs_for(path).exists(path);
}

std::vector<std::string> MetaPlane::list_files() const {
  std::vector<std::string> out;
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    auto files = dfs(s).list_files();
    out.insert(out.end(), std::make_move_iterator(files.begin()),
               std::make_move_iterator(files.end()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t MetaPlane::total_blocks() const {
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < num_shards(); ++s) total += dfs(s).num_blocks();
  return total;
}

std::uint64_t MetaPlane::under_replicated_count() const {
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    total += dfs(s).under_replicated_count();
  }
  return total;
}

std::uint64_t MetaPlane::shard_epoch(std::uint32_t shard) const {
  return dfs(shard).mutation_epoch();
}

std::vector<std::uint64_t> MetaPlane::shard_epochs() const {
  std::vector<std::uint64_t> out(num_shards(), 0);
  for (std::uint32_t s = 0; s < num_shards(); ++s) out[s] = shard_epoch(s);
  return out;
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

const std::string& MetaPlane::image_path(std::uint32_t shard) const {
  const Shard& sh = shard_at(shard);
  if (!attached_) throw std::logic_error("MetaPlane: journals not attached");
  return sh.image_path;
}

void MetaPlane::checkpoint_shard(std::uint32_t shard) {
  Shard& sh = live_shard(shard);
  if (!attached_) throw std::logic_error("MetaPlane: journals not attached");
  FsImage::save(*sh.dfs, sh.image_path);
}

void MetaPlane::crash_shard(std::uint32_t shard,
                            std::uint64_t journal_keep_bytes) {
  Shard& sh = live_shard(shard);
  if (!attached_) throw std::logic_error("MetaPlane: journals not attached");
  sh.dfs->crash_namenode(journal_keep_bytes);
  sh.crashed = true;
}

bool MetaPlane::shard_crashed(std::uint32_t shard) const {
  return shard_at(shard).crashed;
}

std::uint32_t MetaPlane::crashed_shards() const noexcept {
  std::uint32_t n = 0;
  for (const Shard& sh : shards_) n += sh.crashed ? 1u : 0u;
  return n;
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

std::uint64_t MetaPlane::namespace_digest() const {
  std::uint64_t h = common::hash_bytes("datanet-meta-plane");
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    h = common::hash_combine(h, dfs(s).namespace_digest());
  }
  return h;
}

}  // namespace datanet::dfs
