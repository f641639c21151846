#include "elasticmap/live_map.hpp"

#include <stdexcept>
#include <utility>

namespace datanet::elasticmap {

namespace {

ElasticMapArray initial_map(const dfs::MiniDfs& dfs, const std::string& path,
                            const BuildOptions& build) {
  // The dataset may not exist yet (maintainer attached before the first
  // ingest): start from an empty array; extend covers it once blocks seal.
  if (!dfs.exists(path)) {
    return ElasticMapArray(path, build);
  }
  return ElasticMapArray::build(dfs, path, build);
}

}  // namespace

LiveMapMaintainer::LiveMapMaintainer(const dfs::MiniDfs& dfs, std::string path,
                                     LiveMapOptions options)
    : dfs_(dfs),
      path_(std::move(path)),
      options_(options),
      map_(initial_map(dfs, path_, options.build)) {
  if (options_.max_blocks_per_tick == 0) {
    throw std::invalid_argument("LiveMapMaintainer: zero blocks per tick");
  }
  if (options_.rebuild_watermark <= 0.0 || options_.rebuild_watermark > 1.0) {
    throw std::invalid_argument("LiveMapMaintainer: watermark in (0,1]");
  }
  refresh_ledger();
}

void LiveMapMaintainer::refresh_ledger() {
  ledger_.covered_blocks = map_.num_blocks();
  ledger_.covered_bytes = 0;
  ledger_.stale_blocks = 0;
  ledger_.stale_bytes = 0;
  if (dfs_.exists(path_)) {
    const auto& blocks = dfs_.blocks_of(path_);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const std::uint64_t bytes = dfs_.block(blocks[i]).size_bytes;
      if (i < map_.num_blocks()) {
        ledger_.covered_bytes += bytes;
      } else {
        ++ledger_.stale_blocks;
        ledger_.stale_bytes += bytes;
      }
    }
  }
  const std::uint64_t total = ledger_.covered_bytes + ledger_.stale_bytes;
  ledger_.estimated_chi_drift =
      total == 0 ? 0.0
                 : static_cast<double>(ledger_.stale_bytes) /
                       static_cast<double>(total);
  ledger_.rebuild_recommended =
      ledger_.estimated_chi_drift > options_.rebuild_watermark;
}

std::uint64_t LiveMapMaintainer::scan() {
  const std::uint64_t epoch = dfs_.mutation_epoch();
  if (scanned_ && epoch == scanned_epoch_) return ledger_.stale_blocks;
  refresh_ledger();
  scanned_epoch_ = epoch;
  scanned_ = true;
  ++ledger_.scans;
  return ledger_.stale_blocks;
}

std::uint64_t LiveMapMaintainer::tick() {
  scan();
  ++ledger_.ticks;
  if (ledger_.stale_blocks == 0) return 0;
  const std::uint64_t applied = map_.extend(dfs_, options_.max_blocks_per_tick);
  ledger_.deltas_applied += applied;
  refresh_ledger();
  scanned_epoch_ = dfs_.mutation_epoch();
  return applied;
}

std::uint64_t LiveMapMaintainer::drain() {
  std::uint64_t ticks = 0;
  while (ticks < options_.max_drain_ticks) {
    if (scan() == 0) break;
    ++ticks;
    if (tick() == 0) break;  // no progress (nothing extendable)
  }
  return ticks;
}

std::uint64_t LiveMapMaintainer::full_rebuild() {
  map_ = initial_map(dfs_, path_, options_.build);
  ++ledger_.full_rebuilds;
  refresh_ledger();
  scanned_epoch_ = dfs_.mutation_epoch();
  scanned_ = true;
  return map_.num_blocks();
}

}  // namespace datanet::elasticmap
