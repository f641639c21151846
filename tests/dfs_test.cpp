// Tests for the simulated DFS: topology, replica placement, block cutting,
// replica maps, and the block/node inventories the schedulers rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "dfs/mini_dfs.hpp"
#include "dfs/replication_monitor.hpp"

namespace dd = datanet::dfs;

// ---- topology ----

TEST(Topology, FlatSingleRack) {
  EXPECT_EQ(dd::ClusterTopology::flat(8).num_nodes(), 8u);
  EXPECT_EQ(dd::ClusterTopology::flat(1).num_nodes(), 1u);
}

TEST(Topology, RejectsBadArgs) {
  EXPECT_THROW(dd::ClusterTopology::flat(0), std::invalid_argument);
}

// ---- placement ----

TEST(Placement, RandomGivesDistinctNodes) {
  datanet::common::Rng rng(3);
  const std::vector<bool> all(10, true);
  for (int i = 0; i < 100; ++i) {
    const auto nodes = dd::place_replicas(all, 3, rng);
    ASSERT_EQ(nodes.size(), 3u);
    std::set<dd::NodeId> s(nodes.begin(), nodes.end());
    EXPECT_EQ(s.size(), 3u);
  }
}

TEST(Placement, RandomCoversCluster) {
  datanet::common::Rng rng(5);
  const std::vector<bool> all(6, true);
  std::set<dd::NodeId> seen;
  for (int i = 0; i < 200; ++i) {
    for (const auto n : dd::place_replicas(all, 2, rng)) seen.insert(n);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Placement, RandomThrowsWhenImpossible) {
  datanet::common::Rng rng(1);
  EXPECT_THROW((void)dd::place_replicas(std::vector<bool>(2, true), 3, rng),
               std::invalid_argument);
}

// ---- MiniDfs ----

namespace {
dd::MiniDfs make_dfs(std::uint32_t nodes = 8, std::uint64_t block = 1024,
                     std::uint32_t repl = 3) {
  dd::DfsOptions o;
  o.block_size = block;
  o.replication = repl;
  o.seed = 42;
  return dd::MiniDfs(dd::ClusterTopology::flat(nodes), o);
}

std::string record_of_size(std::size_t n, char fill = 'x') {
  return std::string(n, fill);
}
}  // namespace

TEST(MiniDfs, RejectsBadOptions) {
  dd::DfsOptions o;
  o.block_size = 0;
  EXPECT_THROW(dd::MiniDfs(dd::ClusterTopology::flat(4), o), std::invalid_argument);
  o.block_size = 1024;
  o.replication = 0;
  EXPECT_THROW(dd::MiniDfs(dd::ClusterTopology::flat(4), o), std::invalid_argument);
  o.replication = 5;
  EXPECT_THROW(dd::MiniDfs(dd::ClusterTopology::flat(4), o), std::invalid_argument);
}

// namespace_digest covers every replica set, so these constants pin every
// draw the placement RNG makes: block commits, open_block, the inline repairs
// of decommission and report_corrupt_replica, and the ReplicationMonitor's
// repair_block picks on a deferred-healing cluster. A changed constant means a
// draw moved, which re-places blocks in every seeded report and figure.
TEST(MiniDfs, PlacementAndRepairDrawsArePinned) {
  const auto ingest = [](dd::MiniDfs& fs) {
    auto w = fs.create("/pinned");
    for (int i = 0; i < 64; ++i) {
      w.append("record-" + std::to_string(i) + record_of_size(40 + i % 7));
    }
    w.close();
    const dd::BlockId open = fs.open_block("/pinned");
    fs.append_extent(open, "tail\n", 1);
    fs.seal_block(open);
    ASSERT_EQ(fs.blocks_of("/pinned").size(), 9u);
  };
  const auto damage = [](dd::MiniDfs& fs) {
    (void)fs.decommission(3);
    const dd::BlockId b = fs.blocks_of("/pinned")[5];
    const dd::NodeId bad = fs.block(b).replicas[0];
    fs.corrupt_replica(b, bad);
    ASSERT_TRUE(fs.report_corrupt_replica(b, bad));
  };

  // 1. Seeded ingest: commits plus one open block.
  auto fs = make_dfs(12, 512, 3);
  ingest(fs);
  EXPECT_EQ(fs.namespace_digest(), 0x681ade1a87eaef7dull);

  // 2. Inline repair: a decommission and a corrupt-replica report.
  damage(fs);
  EXPECT_EQ(fs.num_active_nodes(), 11u);
  EXPECT_EQ(fs.under_replicated_count(), 0u);
  EXPECT_EQ(fs.namespace_digest(), 0x5259b7ea7f12210full);

  // 3. Deferred healing: the same damage plus one unreported bad copy, left
  // to a ReplicationMonitor to scrub and heal.
  dd::DfsOptions o;
  o.block_size = 512;
  o.replication = 3;
  o.seed = 42;
  o.inline_repair = false;
  dd::MiniDfs deferred(dd::ClusterTopology::flat(12), o);
  ingest(deferred);
  damage(deferred);
  const dd::BlockId scrubbed = deferred.blocks_of("/pinned")[2];
  deferred.corrupt_replica(scrubbed, deferred.block(scrubbed).replicas[1]);
  EXPECT_GT(deferred.under_replicated_count(), 0u);
  dd::ReplicationMonitor monitor(deferred);
  (void)monitor.drain();
  EXPECT_EQ(deferred.under_replicated_count(), 0u);
  EXPECT_EQ(monitor.stats().scrubbed_replicas, 1u);
  EXPECT_EQ(deferred.namespace_digest(), 0x13aee3e693b6c3a5ull);
}

TEST(MiniDfs, WriteCreatesBlocksAtBoundary) {
  auto fs = make_dfs(8, 100);
  auto w = fs.create("/f");
  // Each record is 50 bytes incl. newline -> exactly 2 records per block.
  for (int i = 0; i < 6; ++i) w.append(record_of_size(49));
  w.close();
  EXPECT_EQ(fs.blocks_of("/f").size(), 3u);
  for (const auto b : fs.blocks_of("/f")) {
    EXPECT_EQ(fs.block(b).size_bytes, 100u);
    EXPECT_EQ(fs.block(b).num_records, 2u);
  }
}

TEST(MiniDfs, PartialLastBlock) {
  auto fs = make_dfs(8, 100);
  auto w = fs.create("/f");
  w.append(record_of_size(49));
  w.append(record_of_size(49));
  w.append(record_of_size(10));
  w.close();
  ASSERT_EQ(fs.blocks_of("/f").size(), 2u);
  EXPECT_EQ(fs.block(fs.blocks_of("/f")[1]).size_bytes, 11u);
}

TEST(MiniDfs, OversizedRecordGetsOwnBlock) {
  auto fs = make_dfs(8, 100);
  auto w = fs.create("/f");
  w.append(record_of_size(20));
  w.append(record_of_size(250));  // exceeds block size on its own
  w.append(record_of_size(20));
  w.close();
  ASSERT_EQ(fs.blocks_of("/f").size(), 3u);
  EXPECT_EQ(fs.block(fs.blocks_of("/f")[1]).size_bytes, 251u);
}

TEST(MiniDfs, RecordsNeverStraddleBlocks) {
  auto fs = make_dfs(8, 256);
  auto w = fs.create("/f");
  datanet::common::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    w.append(record_of_size(10 + rng.bounded(60)));
  }
  w.close();
  for (const auto b : fs.blocks_of("/f")) {
    const auto data = fs.read_block(b);
    EXPECT_FALSE(data.empty());
    EXPECT_EQ(data.back(), '\n');  // block ends at a record boundary
  }
}

TEST(MiniDfs, RejectsNewlineInRecord) {
  auto fs = make_dfs();
  auto w = fs.create("/f");
  EXPECT_THROW(w.append("bad\nrecord"), std::invalid_argument);
}

TEST(MiniDfs, AppendAfterCloseThrows) {
  auto fs = make_dfs();
  auto w = fs.create("/f");
  w.append("x");
  w.close();
  EXPECT_THROW(w.append("y"), std::logic_error);
}

TEST(MiniDfs, DestructorFlushesBuffer) {
  auto fs = make_dfs();
  {
    auto w = fs.create("/f");
    w.append("hello");
  }
  ASSERT_EQ(fs.blocks_of("/f").size(), 1u);
  EXPECT_EQ(fs.read_block(fs.blocks_of("/f")[0]), "hello\n");
}

TEST(MiniDfs, DuplicateCreateThrows) {
  auto fs = make_dfs();
  auto w = fs.create("/f");
  w.close();
  EXPECT_THROW(fs.create("/f"), std::invalid_argument);
}

TEST(MiniDfs, ReplicationOnDistinctNodes) {
  auto fs = make_dfs(8, 64, 3);
  auto w = fs.create("/f");
  for (int i = 0; i < 50; ++i) w.append(record_of_size(30));
  w.close();
  for (const auto b : fs.blocks_of("/f")) {
    const auto& reps = fs.block(b).replicas;
    ASSERT_EQ(reps.size(), 3u);
    std::set<dd::NodeId> s(reps.begin(), reps.end());
    EXPECT_EQ(s.size(), 3u);
  }
}

TEST(MiniDfs, NodeInventoriesMatchReplicaMap) {
  auto fs = make_dfs(6, 64, 2);
  auto w = fs.create("/f");
  for (int i = 0; i < 40; ++i) w.append(record_of_size(30));
  w.close();
  // Every replica appears in the hosting node's inventory, and vice versa.
  std::uint64_t replica_count = 0;
  for (const auto b : fs.blocks_of("/f")) {
    for (const auto n : fs.block(b).replicas) {
      const auto& inv = fs.blocks_on(n);
      EXPECT_NE(std::find(inv.begin(), inv.end(), b), inv.end());
      ++replica_count;
    }
  }
  std::uint64_t inventory_count = 0;
  for (dd::NodeId n = 0; n < 6; ++n) inventory_count += fs.blocks_on(n).size();
  EXPECT_EQ(inventory_count, replica_count);
  EXPECT_EQ(inventory_count, fs.num_blocks() * 2);
}

TEST(MiniDfs, IsLocalAgreesWithReplicas) {
  auto fs = make_dfs(8, 64, 3);
  auto w = fs.create("/f");
  for (int i = 0; i < 10; ++i) w.append(record_of_size(30));
  w.close();
  for (const auto b : fs.blocks_of("/f")) {
    const auto& reps = fs.block(b).replicas;
    for (dd::NodeId n = 0; n < 8; ++n) {
      const bool expect =
          std::find(reps.begin(), reps.end(), n) != reps.end();
      EXPECT_EQ(fs.is_local(b, n), expect);
    }
  }
}

TEST(MiniDfs, TotalBytesAndExists) {
  auto fs = make_dfs(8, 1024);
  EXPECT_FALSE(fs.exists("/f"));
  auto w = fs.create("/f");
  w.append(record_of_size(99));
  w.close();
  EXPECT_TRUE(fs.exists("/f"));
  EXPECT_EQ(fs.total_bytes(), 100u);
  EXPECT_EQ(fs.list_files().size(), 1u);
}

TEST(MiniDfs, DeterministicPlacementForSameSeed) {
  auto build = [] {
    auto fs = make_dfs(8, 64, 3);
    auto w = fs.create("/f");
    for (int i = 0; i < 30; ++i) w.append(record_of_size(30));
    w.close();
    std::vector<std::vector<dd::NodeId>> placements;
    for (const auto b : fs.blocks_of("/f")) placements.push_back(fs.block(b).replicas);
    return placements;
  };
  EXPECT_EQ(build(), build());
}

TEST(MiniDfs, UnknownLookupsThrow) {
  auto fs = make_dfs();
  EXPECT_THROW((void)fs.blocks_of("/nope"), std::out_of_range);
  EXPECT_THROW((void)fs.block(99), std::out_of_range);
  EXPECT_THROW((void)fs.read_block(99), std::out_of_range);
  EXPECT_THROW((void)fs.blocks_on(99), std::out_of_range);
}

TEST(MiniDfs, MultipleFilesIndependent) {
  auto fs = make_dfs(8, 128);
  auto a = fs.create("/a");
  a.append(record_of_size(50));
  a.close();
  auto b = fs.create("/b");
  b.append(record_of_size(60));
  b.close();
  EXPECT_EQ(fs.blocks_of("/a").size(), 1u);
  EXPECT_EQ(fs.blocks_of("/b").size(), 1u);
  EXPECT_NE(fs.blocks_of("/a")[0], fs.blocks_of("/b")[0]);
  EXPECT_EQ(fs.block(fs.blocks_of("/b")[0]).index_in_file, 0u);
}

// Property sweep: block accounting holds across block sizes and replication.
class DfsGeometrySweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {};

TEST_P(DfsGeometrySweep, ByteConservation) {
  const auto [block_size, repl] = GetParam();
  dd::DfsOptions o;
  o.block_size = block_size;
  o.replication = repl;
  o.seed = 11;
  dd::MiniDfs fs(dd::ClusterTopology::flat(8), o);
  auto w = fs.create("/f");
  std::uint64_t written = 0;
  datanet::common::Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    const auto n = 5 + rng.bounded(40);
    w.append(record_of_size(n));
    written += n + 1;
  }
  w.close();
  std::uint64_t stored = 0, records = 0;
  for (const auto b : fs.blocks_of("/f")) {
    stored += fs.block(b).size_bytes;
    records += fs.block(b).num_records;
    EXPECT_EQ(fs.read_block(b).size(), fs.block(b).size_bytes);
  }
  EXPECT_EQ(stored, written);
  EXPECT_EQ(records, 300u);
  EXPECT_EQ(fs.total_bytes(), written);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DfsGeometrySweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(128, 1024, 65536),
                       ::testing::Values<std::uint32_t>(1, 2, 3)));

// ---- fsck ----

#include "dfs/fsck.hpp"

TEST(Fsck, HealthyClusterReports) {
  auto fs = make_dfs(8, 256, 3);
  auto w = fs.create("/f");
  for (int i = 0; i < 60; ++i) w.append(record_of_size(60));
  w.close();
  const auto report = dd::fsck(fs);
  EXPECT_TRUE(report.healthy());
  EXPECT_EQ(report.total_blocks, fs.num_blocks());
  EXPECT_EQ(report.healthy_blocks, fs.num_blocks());
  EXPECT_EQ(report.missing_blocks, 0u);
  std::uint64_t hosted = 0;
  for (const auto c : report.node_block_counts) hosted += c;
  EXPECT_EQ(hosted, fs.num_blocks() * 3);
}

TEST(Fsck, DetectsUnderReplicationAfterHeavyFailures) {
  // 4 nodes, replication 3: after 2 failures only 2 active nodes remain, so
  // blocks sit at 2 replicas — capped by the cluster, still "healthy".
  dd::DfsOptions o;
  o.block_size = 512;
  o.replication = 3;
  o.seed = 9;
  dd::MiniDfs fs(dd::ClusterTopology::flat(4), o);
  auto w = fs.create("/f");
  for (int i = 0; i < 40; ++i) w.append(record_of_size(60));
  w.close();
  (void)fs.decommission(0);
  (void)fs.decommission(1);
  const auto report = dd::fsck(fs);
  EXPECT_EQ(report.missing_blocks, 0u);
  EXPECT_EQ(report.under_replicated, 0u);  // capped at active nodes
  EXPECT_TRUE(report.healthy());
}

TEST(Fsck, ReportsMissingAfterSingleReplicaLoss) {
  auto fs = make_dfs(6, 512, 1);
  auto w = fs.create("/f");
  for (int i = 0; i < 30; ++i) w.append(record_of_size(60));
  w.close();
  const auto lost = fs.decommission(2);
  const auto report = dd::fsck(fs);
  EXPECT_EQ(report.missing_blocks, lost.size());
  EXPECT_EQ(report.healthy(), lost.empty());
}

// ---- checksums & corruption ----

TEST(Checksum, CleanBlockReadsBackVerified) {
  auto fs = make_dfs(6, 256, 2);
  auto w = fs.create("/f");
  w.append(record_of_size(100));
  w.close();
  const auto b = fs.blocks_of("/f")[0];
  for (const auto n : fs.block(b).replicas) {
    EXPECT_TRUE(fs.replica_healthy(b, n));
  }
  EXPECT_NE(fs.block(b).checksum, 0u);
  EXPECT_EQ(fs.read_block(b).size(), 101u);
}

TEST(Checksum, CorruptBlockFailsEveryRead) {
  auto fs = make_dfs(6, 256, 3);
  auto w = fs.create("/f");
  w.append(record_of_size(100));
  w.close();
  const auto b = fs.blocks_of("/f")[0];
  fs.corrupt_block(b);
  try {
    (void)fs.read_block(b);
    FAIL() << "read of corrupt block must throw";
  } catch (const dd::BlockCorruptError& e) {
    EXPECT_EQ(e.block_id, b);
  }
  // Media corruption hits the single logical copy: every replica is bad.
  for (const auto n : fs.block(b).replicas) {
    EXPECT_FALSE(fs.replica_healthy(b, n));
  }
}

TEST(Checksum, CorruptReplicaOnlyPoisonsOneCopy) {
  auto fs = make_dfs(6, 256, 3);
  auto w = fs.create("/f");
  w.append(record_of_size(100));
  w.close();
  const auto b = fs.blocks_of("/f")[0];
  const auto bad = fs.block(b).replicas[0];
  fs.corrupt_replica(b, bad);
  EXPECT_FALSE(fs.replica_healthy(b, bad));
  EXPECT_THROW((void)fs.read_replica_pinned(b, bad), dd::BlockCorruptError);
  for (const auto n : fs.block(b).replicas) {
    if (n == bad) continue;
    EXPECT_TRUE(fs.replica_healthy(b, n));
    EXPECT_EQ(fs.read_replica_pinned(b, n).data.size(), 101u);
  }
}

TEST(Checksum, ReportCorruptReplicaDropsAndReReplicates) {
  auto fs = make_dfs(6, 256, 3);
  auto w = fs.create("/f");
  w.append(record_of_size(100));
  w.close();
  const auto b = fs.blocks_of("/f")[0];
  const auto bad = fs.block(b).replicas[0];
  fs.corrupt_replica(b, bad);
  EXPECT_TRUE(fs.report_corrupt_replica(b, bad));
  const auto& reps = fs.block(b).replicas;
  EXPECT_EQ(reps.size(), 3u);  // dropped one, re-replicated one
  EXPECT_EQ(std::find(reps.begin(), reps.end(), bad), reps.end());
  for (const auto n : reps) EXPECT_TRUE(fs.replica_healthy(b, n));
}

TEST(Checksum, ReportOnMediaCorruptionAdmitsDefeat) {
  auto fs = make_dfs(6, 256, 2);
  auto w = fs.create("/f");
  w.append(record_of_size(100));
  w.close();
  const auto b = fs.blocks_of("/f")[0];
  fs.corrupt_block(b);
  // No healthy source exists anywhere: the report cannot re-replicate.
  EXPECT_FALSE(fs.report_corrupt_replica(b, fs.block(b).replicas[0]));
}

// ---- liveness-aware placement ----

TEST(Placement, ActiveMaskExcludesDeadNodes) {
  datanet::common::Rng rng(3);
  const std::vector<bool> active{true, false, true, false, true, true};
  for (int i = 0; i < 100; ++i) {
    for (const auto n : dd::place_replicas(active, 3, rng)) {
      EXPECT_TRUE(active[n]) << "placed on dead node " << n;
    }
  }
  EXPECT_THROW(
      (void)dd::place_replicas({true, false, false, false, false, false}, 2, rng),
      std::invalid_argument);
}

TEST(Decommission, LaterWritesAvoidDeadNodes) {
  auto fs = make_dfs(6, 256, 3);
  auto w0 = fs.create("/before");
  for (int i = 0; i < 8; ++i) w0.append(record_of_size(100));
  w0.close();

  (void)fs.decommission(1);
  (void)fs.decommission(4);

  auto w1 = fs.create("/after");
  for (int i = 0; i < 8; ++i) w1.append(record_of_size(100));
  w1.close();
  for (const auto b : fs.blocks_of("/after")) {
    for (const auto n : fs.block(b).replicas) {
      EXPECT_NE(n, 1u);
      EXPECT_NE(n, 4u);
      EXPECT_TRUE(fs.is_active(n));
    }
  }
}

TEST(Decommission, WritesProceedUnderReplicatedWhenClusterShrinks) {
  auto fs = make_dfs(4, 256, 3);
  (void)fs.decommission(0);
  (void)fs.decommission(1);  // 2 active nodes < replication 3
  auto w = fs.create("/f");
  w.append(record_of_size(100));
  w.close();
  const auto b = fs.blocks_of("/f")[0];
  EXPECT_EQ(fs.block(b).replicas.size(), 2u);  // capped at active nodes
  (void)fs.decommission(2);
  EXPECT_EQ(fs.num_active_nodes(), 1u);
  auto w2 = fs.create("/g");
  w2.append(record_of_size(50));
  w2.close();
  EXPECT_EQ(fs.block(fs.blocks_of("/g")[0]).replicas.size(), 1u);
}
