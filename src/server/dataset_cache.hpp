#pragma once
// Process-wide cache of built DataNet metadata (the in-memory ElasticMap
// array) keyed by dataset path, with epoch-based invalidation against the
// live MiniDfs. Building an ElasticMap is a full scan of the file — the one
// cost the paper amortizes across queries (Section III-B; Table II) — so
// datanetd builds it once per dataset and every query on every connection
// shares the same immutable snapshot via shared_ptr.
//
// Invalidation uses MiniDfs::mutation_epoch(), the monotone counter bumped
// by every namespace mutation:
//   * epoch unchanged            -> pure hit, no locks beyond the cache map.
//   * epoch moved, same per-path block count -> replica churn (healing,
//     corrupt-copy drops, decommission re-replication). Block BYTES and
//     membership are unchanged, so the ElasticMap is still exact:
//     revalidate the entry at the new epoch instead of rebuilding. This is
//     what keeps a serving daemon's cache warm while a ReplicationMonitor
//     heals underneath it.
//   * epoch moved, block count GREW on the same instance -> the file was
//     appended to (streaming ingestion): DELTA-APPLY — copy the cached
//     entry's ElasticMap and incrementally scan only the new blocks
//     (ElasticMapArray::extend) instead of rebuilding from scratch. Falls
//     back to a full rebuild if the covered prefix changed underneath.
//   * anything else (shrank, recreated, different instance) -> rebuild.
// Byte-flips from corrupt_block are deliberately treated as transient
// (repair restores the committed bytes); the estimates a momentarily-corrupt
// block contributes were built from the committed content, which is also
// what selection verifies against.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "datanet/datanet.hpp"
#include "dfs/meta_plane.hpp"
#include "dfs/mini_dfs.hpp"

namespace datanet::server {

class DatasetCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t revalidations = 0;  // replica churn only: entry kept
    std::uint64_t rebuilds = 0;       // misses + invalidations
    std::uint64_t delta_applies = 0;  // growth absorbed incrementally
  };

  // Shared immutable snapshot for `path` on `dfs`, building it on miss.
  // Callers keep the shared_ptr for the duration of their query, so an
  // invalidation never pulls metadata out from under a running selection.
  // Thread-safe against concurrent get() calls and against replica-churn
  // mutators; file GROWTH must be quiesced by the owner (datanetd never
  // appends to a dataset it is serving — growth happens between batches,
  // as in the invalidation test). The build runs under the cache lock:
  // builds are rare and this makes a thundering herd of duplicate
  // concurrent builds impossible.
  [[nodiscard]] std::shared_ptr<const core::DataNet> get(
      const dfs::MiniDfs& dfs, const std::string& path);

  // Sharded-plane variant: the entry is validated against the OWNING
  // shard's epoch only (the plane generalizes mutation_epoch per shard), so
  // replica churn on one shard never invalidates or revalidates cached
  // DataNets whose blocks live on another. Throws ShardUnavailableError
  // while the owning shard is crashed. The entry pins the shard's MiniDfs
  // instance, so a bundle handed out here (including later via get_stale)
  // stays valid across a recover_shard swap; the first get() after the
  // swap sees a new instance and rebuilds.
  [[nodiscard]] std::shared_ptr<const core::DataNet> get(
      const dfs::MetaPlane& plane, const std::string& path);

  // Degraded-mode read: the last successfully built bundle for `path`,
  // WITHOUT epoch validation — the owning shard may be down, so there is
  // nothing to validate against. nullptr when no bundle was ever built (a
  // cold cache cannot serve degraded). How stale the bundle is, callers
  // measure against whatever namespace they hold:
  // bundle->meta().stale_bytes(dfs) bounds its estimate error per key.
  [[nodiscard]] std::shared_ptr<const core::DataNet> get_stale(
      const std::string& path) const;

  void invalidate(const std::string& path);
  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const core::DataNet> net;
    // The instance identity the entry was built against. Epoch comparison
    // is only meaningful within one MiniDfs instance, so a different
    // address at the same path (recover_shard swapped in a rebuilt shard)
    // means rebuild, never revalidate. Plane-built entries use DataNet's
    // shared-ownership constructor, so `net` itself keeps that instance
    // alive for every holder — including degraded queries still in flight
    // after the entry has been replaced.
    const dfs::MiniDfs* src = nullptr;
    std::uint64_t epoch = 0;
    std::size_t num_blocks = 0;
  };

  [[nodiscard]] std::shared_ptr<const core::DataNet> get_impl(
      const dfs::MiniDfs& dfs, const std::string& path,
      std::shared_ptr<const dfs::MiniDfs> pin);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  Stats stats_;
};

}  // namespace datanet::server
