// Tests for the sharded metadata plane: HashRing ownership properties
// (range, determinism, consistency under growth, vnode balance), MetaPlane
// routing + per-shard durability (kill one shard, recover from its own
// image + journal suffix while the others keep serving), the shard-count-1
// digest identity with a plain MiniDfs, placement identity at any shard
// count, per-shard epoch isolation, and plane-wide fsck.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "dfs/fsck.hpp"
#include "dfs/hash_ring.hpp"
#include "dfs/meta_plane.hpp"
#include "dfs/mini_dfs.hpp"

namespace dd = datanet::dfs;
namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path dir;
  TempDir() {
    dir = fs::temp_directory_path() /
          ("datanet_meta_plane_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~TempDir() { fs::remove_all(dir); }
  [[nodiscard]] std::string path() const { return dir.string(); }
};

dd::MetaPlaneOptions plane_options(std::uint32_t shards,
                                   std::uint64_t block_size = 256) {
  dd::MetaPlaneOptions opt;
  opt.num_shards = shards;
  opt.dfs.block_size = block_size;
  opt.dfs.replication = 3;
  opt.dfs.seed = 42;
  return opt;
}

// Write `records` fixed-size records into `path` through the plane.
void write_file(dd::MetaPlane& plane, const std::string& path,
                std::uint64_t records) {
  auto w = plane.dfs_for(path).create(path);
  for (std::uint64_t i = 0; i < records; ++i) {
    w.append("record-" + std::to_string(i) + "-payload-xxxxxxxxxxxxxxxx");
  }
  w.close();
}

void write_file(dd::MiniDfs& dfs, const std::string& path,
                std::uint64_t records) {
  auto w = dfs.create(path);
  for (std::uint64_t i = 0; i < records; ++i) {
    w.append("record-" + std::to_string(i) + "-payload-xxxxxxxxxxxxxxxx");
  }
  w.close();
}

// First path of the form "<stem><n>" owned by `shard`.
std::string path_on_shard(const dd::MetaPlane& plane, std::uint32_t shard,
                          const std::string& stem) {
  for (std::uint32_t n = 0;; ++n) {
    std::string cand = stem + std::to_string(n);
    if (plane.shard_of(cand) == shard) return cand;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// HashRing

TEST(HashRing, OwnersInRangeAndDeterministic) {
  const dd::HashRing ring(8, 64, 7);
  const dd::HashRing twin(8, 64, 7);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const auto h = datanet::common::mix64(i);
    const auto owner = ring.shard_of_hash(h);
    ASSERT_LT(owner, 8u);
    ASSERT_EQ(owner, twin.shard_of_hash(h));
  }
  EXPECT_EQ(ring.shard_of_path("/data/movies.log"),
            twin.shard_of_path("/data/movies.log"));
}

TEST(HashRing, SingleShardOwnsEverything) {
  const dd::HashRing ring(1);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(ring.shard_of_hash(datanet::common::mix64(i)), 0u);
  }
  EXPECT_EQ(ring.shard_of_path("/anything"), 0u);
}

// The defining consistent-hashing property: growing the ring from N to N+1
// shards only moves keys TO the new shard — no key changes owner between two
// pre-existing shards.
TEST(HashRing, GrowthOnlyMovesKeysToTheNewShard) {
  const dd::HashRing small(8, 64, 3);
  const dd::HashRing big(9, 64, 3);
  std::uint64_t moved = 0;
  const std::uint64_t keys = 50000;
  for (std::uint64_t i = 0; i < keys; ++i) {
    const auto h = datanet::common::mix64(i * 0x9e3779b97f4a7c15ULL + 1);
    const auto before = small.shard_of_hash(h);
    const auto after = big.shard_of_hash(h);
    if (after != before) {
      ASSERT_EQ(after, 8u) << "key moved between pre-existing shards";
      ++moved;
    }
  }
  // Roughly 1/9 of the keyspace should move; allow a generous band.
  EXPECT_GT(moved, keys / 20);
  EXPECT_LT(moved, keys / 4);
}

TEST(HashRing, VnodesKeepShardsBalanced) {
  const dd::HashRing ring(8, 64, 0);
  const auto points = ring.points_per_shard();
  ASSERT_EQ(points.size(), 8u);
  for (const auto p : points) EXPECT_EQ(p, 64u);

  std::vector<std::uint64_t> load(8, 0);
  const std::uint64_t keys = 100000;
  for (std::uint64_t i = 0; i < keys; ++i) {
    ++load[ring.shard_of_hash(datanet::common::mix64(i + 17))];
  }
  const double mean = static_cast<double>(keys) / 8.0;
  for (const auto l : load) {
    EXPECT_GT(static_cast<double>(l), 0.6 * mean);
    EXPECT_LT(static_cast<double>(l), 1.5 * mean);
  }
}

// ---------------------------------------------------------------------------
// MetaPlane

TEST(MetaPlane, SingleShardMatchesPlainMiniDfsByteForByte) {
  const auto popt = plane_options(1);
  dd::MetaPlane plane(dd::ClusterTopology::flat(8), popt);
  dd::MiniDfs plain(dd::ClusterTopology::flat(8), popt.dfs);

  write_file(plane, "/data/a", 40);
  write_file(plane, "/data/b", 25);
  write_file(plain, "/data/a", 40);
  write_file(plain, "/data/b", 25);

  EXPECT_EQ(plane.dfs(0).namespace_digest(), plain.namespace_digest());
  EXPECT_EQ(plane.total_blocks(), plain.num_blocks());
  auto plain_files = plain.list_files();  // MiniDfs lists in map order
  std::sort(plain_files.begin(), plain_files.end());
  EXPECT_EQ(plane.list_files(), plain_files);
}

// Every shard shares the same DfsOptions (seed included), so a file ingested
// into a fresh plane gets the same placement no matter how many shards the
// plane has — the digest contract behind serve --meta-shards.
TEST(MetaPlane, PlacementIsIdenticalAtAnyShardCount) {
  dd::MetaPlane one(dd::ClusterTopology::flat(8), plane_options(1));
  dd::MetaPlane four(dd::ClusterTopology::flat(8), plane_options(4));

  const std::string path = "/data/movies.log";
  write_file(one, path, 60);
  write_file(four, path, 60);

  const auto& a = one.dfs_for(path);
  const auto& b = four.dfs_for(path);
  const auto blocks_a = a.blocks_of(path);
  const auto blocks_b = b.blocks_of(path);
  ASSERT_EQ(blocks_a.size(), blocks_b.size());
  for (std::size_t i = 0; i < blocks_a.size(); ++i) {
    EXPECT_EQ(a.replicas_snapshot(blocks_a[i]),
              b.replicas_snapshot(blocks_b[i]));
  }
  EXPECT_EQ(a.namespace_digest(), b.namespace_digest());
}

TEST(MetaPlane, RoutesFilesToOwningShardAndListsUnion) {
  dd::MetaPlane plane(dd::ClusterTopology::flat(8), plane_options(4));
  std::vector<std::string> files;
  for (std::uint32_t s = 0; s < 4; ++s) {
    files.push_back(path_on_shard(plane, s, "/data/f"));
    write_file(plane, files.back(), 10);
  }
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(plane.exists(files[s]));
    EXPECT_TRUE(plane.dfs(s).exists(files[s]));
    EXPECT_EQ(plane.dfs(s).list_files().size(), 1u);
  }
  auto want = files;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(plane.list_files(), want);
  EXPECT_EQ(plane.total_blocks(),
            plane.dfs(0).num_blocks() + plane.dfs(1).num_blocks() +
                plane.dfs(2).num_blocks() + plane.dfs(3).num_blocks());
}

TEST(MetaPlane, ShardEpochsAreIsolated) {
  dd::MetaPlane plane(dd::ClusterTopology::flat(8), plane_options(4));
  const auto pa = path_on_shard(plane, 0, "/a/f");
  const auto pb = path_on_shard(plane, 1, "/b/f");
  write_file(plane, pa, 10);
  write_file(plane, pb, 10);
  const auto epochs = plane.shard_epochs();

  // Churn on shard 0 only: replica corruption bumps its epoch.
  auto& dfs0 = plane.dfs(0);
  const auto block = dfs0.blocks_of(pa).front();
  dfs0.corrupt_replica(block, dfs0.replicas_snapshot(block).front());

  EXPECT_GT(plane.shard_epoch(0), epochs[0]);
  EXPECT_EQ(plane.shard_epoch(1), epochs[1]);
  EXPECT_EQ(plane.shard_epoch(2), epochs[2]);
  EXPECT_EQ(plane.shard_epoch(3), epochs[3]);
}

TEST(MetaPlane, DurabilityRequiresAttachAndCrashIsTyped) {
  dd::MetaPlane plane(dd::ClusterTopology::flat(8), plane_options(2));
  EXPECT_FALSE(plane.journals_attached());
  EXPECT_THROW(plane.checkpoint_shard(0), std::logic_error);
  EXPECT_THROW(plane.crash_shard(0), std::logic_error);
  EXPECT_THROW((void)plane.journal_path(0), std::logic_error);
  EXPECT_THROW(plane.recover_shard(0), std::logic_error);  // not crashed

  TempDir tmp;
  plane.attach_journals(tmp.path());
  EXPECT_TRUE(plane.journals_attached());
  EXPECT_THROW(plane.attach_journals(tmp.path()), std::logic_error);
  EXPECT_THROW((void)plane.dfs(7), std::out_of_range);

  plane.crash_shard(1);
  EXPECT_TRUE(plane.shard_crashed(1));
  EXPECT_EQ(plane.crashed_shards(), 1u);
  try {
    (void)plane.dfs(1);
    FAIL() << "expected ShardUnavailableError";
  } catch (const dd::ShardUnavailableError& e) {
    EXPECT_EQ(e.shard_id, 1u);
  }
  EXPECT_THROW((void)plane.namespace_digest(), dd::ShardUnavailableError);
  EXPECT_THROW(plane.checkpoint_shard(1), dd::ShardUnavailableError);
}

TEST(MetaPlane, KillOneShardOthersKeepServingThenRecover) {
  TempDir tmp;
  dd::MetaPlane plane(dd::ClusterTopology::flat(8), plane_options(4));

  std::vector<std::string> files;
  for (std::uint32_t s = 0; s < 4; ++s) {
    files.push_back(path_on_shard(plane, s, "/data/f"));
    write_file(plane, files[s], 20);
  }
  plane.attach_journals(tmp.path());

  // Post-checkpoint mutations on the victim: its recovery must replay a
  // journal suffix, not just reload the image.
  const std::uint32_t victim = 2;
  const auto late = path_on_shard(plane, victim, "/late/f");
  write_file(plane, late, 8);
  const auto want = plane.dfs(victim).namespace_digest();
  const auto epochs = plane.shard_epochs();

  plane.crash_shard(victim);

  // Every other shard keeps serving reads and mutations while it is down.
  for (std::uint32_t s = 0; s < 4; ++s) {
    if (s == victim) continue;
    EXPECT_TRUE(plane.dfs(s).exists(files[s]));
    (void)plane.dfs(s).namespace_digest();
  }
  const auto extra = path_on_shard(plane, 1, "/during-outage/f");
  write_file(plane, extra, 5);
  EXPECT_TRUE(plane.exists(extra));
  EXPECT_THROW((void)plane.exists(files[victim]), dd::ShardUnavailableError);

  const auto info = plane.recover_shard(victim);
  EXPECT_GT(info.replayed_frames, 0u);
  EXPECT_FALSE(plane.shard_crashed(victim));
  EXPECT_EQ(plane.dfs(victim).namespace_digest(), want);
  EXPECT_TRUE(plane.exists(late));
  // Recovery re-attached a fresh journal: later mutations stay durable.
  const auto post = path_on_shard(plane, victim, "/after-recovery/f");
  write_file(plane, post, 5);
  plane.crash_shard(victim);
  (void)plane.recover_shard(victim);
  EXPECT_TRUE(plane.exists(post));
  // Epochs of untouched shards did not move across the victim's outage.
  EXPECT_EQ(plane.shard_epoch(0), epochs[0]);
  EXPECT_EQ(plane.shard_epoch(3), epochs[3]);

  const auto report = dd::fsck(plane);
  EXPECT_TRUE(report.healthy());
  ASSERT_EQ(report.shards.size(), 4u);
  EXPECT_EQ(report.combined.total_blocks, plane.total_blocks());
}

TEST(MetaPlane, PlaneFsckAggregatesAcrossShards) {
  dd::MetaPlane plane(dd::ClusterTopology::flat(6), plane_options(3));
  for (std::uint32_t s = 0; s < 3; ++s) {
    write_file(plane, path_on_shard(plane, s, "/d/f"), 15);
  }
  const auto clean = dd::fsck(plane);
  EXPECT_TRUE(clean.healthy());
  EXPECT_EQ(clean.combined.total_blocks, plane.total_blocks());
  EXPECT_EQ(clean.combined.missing_blocks, 0u);

  // Sum of per-shard block counts must equal the combined count.
  std::uint64_t sum = 0;
  for (const auto& r : clean.shards) sum += r.total_blocks;
  EXPECT_EQ(sum, clean.combined.total_blocks);
}
