#include "server/dataset_cache.hpp"

#include <stdexcept>

namespace datanet::server {

std::shared_ptr<const core::DataNet> DatasetCache::get(
    const dfs::MiniDfs& dfs, const std::string& path) {
  // Unpinned variant: the caller owns `dfs` and keeps it alive for the
  // cache's lifetime (the in-process contract documented on get()).
  return get_impl(dfs, path, nullptr);
}

std::shared_ptr<const core::DataNet> DatasetCache::get_impl(
    const dfs::MiniDfs& dfs, const std::string& path,
    std::shared_ptr<const dfs::MiniDfs> pin) {
  std::lock_guard lock(mu_);
  const std::uint64_t epoch = dfs.mutation_epoch();
  auto it = entries_.find(path);
  if (it != entries_.end()) {
    Entry& e = it->second;
    // Epochs only order mutations within ONE MiniDfs instance. A different
    // address here means the shard was rebuilt (recover_shard swap): the
    // cached bundle still points into the pinned pre-swap instance, so it
    // must never be revalidated against the new one — rebuild.
    if (e.src != &dfs) {
      entries_.erase(it);
    } else if (e.epoch == epoch) {
      ++stats_.hits;
      return e.net;
    } else if (dfs.blocks_of(path).size() == e.num_blocks) {
      // Epoch moved on the same instance: distinguish replica churn
      // (healing / balancing — block bytes and membership unchanged,
      // ElasticMap still exact) from growth or recreation of the file.
      e.epoch = epoch;
      ++stats_.revalidations;
      return e.net;
    } else if (dfs.blocks_of(path).size() > e.num_blocks) {
      // Growth on the same instance (streaming ingestion sealed new blocks):
      // delta-apply. The new bundle copies the cached ElasticMap and scans
      // only the appended blocks; extend() validates that the covered block
      // prefix is unchanged and throws when the file was actually recreated
      // with more blocks, in which case we fall through to a full rebuild.
      try {
        // Copy (not move) the pin: if extend() throws we still need it for
        // the full-rebuild fallback. The unpinned variant gets a non-owning
        // alias — same lifetime contract as the ref-ctor path.
        auto pinned = pin != nullptr
                          ? pin
                          : std::shared_ptr<const dfs::MiniDfs>(
                                std::shared_ptr<const dfs::MiniDfs>{}, &dfs);
        auto net = std::make_shared<const core::DataNet>(std::move(pinned),
                                                         path, e.net->meta());
        e.net = net;
        e.epoch = epoch;
        e.num_blocks = static_cast<std::size_t>(net->meta().num_blocks());
        ++stats_.delta_applies;
        return net;
      } catch (const std::invalid_argument&) {
        entries_.erase(it);  // prefix changed: rebuild from scratch below
      }
    } else {
      entries_.erase(it);
    }
  }
  // Plane entries use the shared-ownership constructor: the bundle itself
  // keeps the shard instance alive, so a degraded query holding it across
  // a recover_shard swap (and even across this entry's later replacement)
  // never dereferences a freed MiniDfs.
  auto net = pin != nullptr
                 ? std::make_shared<const core::DataNet>(std::move(pin), path)
                 : std::make_shared<const core::DataNet>(dfs, path);
  // Cache under the PRE-build epoch (read before the scan): if a mutator
  // ran while we scanned, the next get() sees a moved epoch and re-checks
  // instead of trusting a build that may have raced it.
  // num_blocks is the count the build actually covered (not a fresh
  // namespace lookup), so a growth racing the build cannot produce an
  // entry whose count matches the new namespace by accident.
  entries_.emplace(path, Entry{.net = net,
                               .src = &dfs,
                               .epoch = epoch,
                               .num_blocks = static_cast<std::size_t>(
                                   net->meta().num_blocks())});
  ++stats_.rebuilds;
  return net;
}

std::shared_ptr<const core::DataNet> DatasetCache::get(
    const dfs::MetaPlane& plane, const std::string& path) {
  // Routing IS the re-key: the entry's epoch is read from (and compared
  // against) the owning shard alone. dfs_for throws ShardUnavailableError
  // while the shard is crashed; the snapshot of the SAME instance is what
  // the entry pins so the bundle survives a later recover_shard swap.
  const dfs::MiniDfs& dfs = plane.dfs_for(path);
  return get_impl(dfs, path, plane.dfs_snapshot(plane.shard_of(path)));
}

std::shared_ptr<const core::DataNet> DatasetCache::get_stale(
    const std::string& path) const {
  std::lock_guard lock(mu_);
  const auto it = entries_.find(path);
  return it == entries_.end() ? nullptr : it->second.net;
}

void DatasetCache::invalidate(const std::string& path) {
  std::lock_guard lock(mu_);
  entries_.erase(path);
}

DatasetCache::Stats DatasetCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace datanet::server
