// Tests for the crash-consistency layer: EditLog framing and torn-tail
// replay, FsImage checkpoints, MiniDfs::recover (checkpoint + journal
// suffix), the kCrashNameNode fault seam, the background ReplicationMonitor,
// and the crash-atomic / CRC-checked MetaStore format. The heart of the
// suite is a truncation fuzz: the journal of a scripted mutation history is
// cut at EVERY byte offset and recovery must always land on a valid prefix
// state — bit-identical to the live namespace at each mutation boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "datanet/datanet.hpp"
#include "datanet/experiment.hpp"
#include "datanet/selection_runtime.hpp"
#include "dfs/edit_log.hpp"
#include "dfs/fault_injector.hpp"
#include "dfs/fs_image.hpp"
#include "dfs/fsck.hpp"
#include "dfs/mini_dfs.hpp"
#include "dfs/replication_monitor.hpp"
#include "dfs/wire.hpp"
#include "elasticmap/elastic_map.hpp"
#include "elasticmap/meta_store.hpp"
#include "mapred/report_json.hpp"
#include "scheduler/datanet_sched.hpp"
#include "sim/selection_sim.hpp"
#include "workload/dataset.hpp"
#include "workload/movie_gen.hpp"

namespace dc = datanet::core;
namespace dd = datanet::dfs;
namespace de = datanet::elasticmap;
namespace dm = datanet::mapred;
namespace dsch = datanet::scheduler;
namespace dw = datanet::workload;
namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path dir;
  TempDir() {
    dir = fs::temp_directory_path() /
          ("datanet_recovery_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~TempDir() { fs::remove_all(dir); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (dir / name).string();
  }
};

std::vector<dw::Record> small_records(std::uint64_t n, std::uint64_t seed) {
  dw::MovieGenOptions o;
  o.num_records = n;
  o.num_movies = 6;
  o.seed = seed;
  return dw::MovieLogGenerator(o).generate();
}

void copy_truncated(const std::string& src, const std::string& dst,
                    std::uint64_t keep_bytes) {
  std::ifstream in(src, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  bytes.resize(std::min<std::uint64_t>(keep_bytes, bytes.size()));
  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(fs::file_size(path));
}

// A journaled cluster put through a scripted mutation history, recording
// (journal offset, namespace digest) after every mutating call. The blank
// checkpoint taken right after attach makes recover(image, journal-prefix)
// reconstruct any recorded point.
struct DurableCluster {
  TempDir tmp;
  std::unique_ptr<dd::EditLog> journal;
  std::unique_ptr<dd::MiniDfs> dfs;
  std::string image_path;
  // (bytes_written, digest) after each mutation, index 0 = blank namespace.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> history;

  explicit DurableCluster(bool inline_repair = true) {
    dd::DfsOptions opt;
    opt.block_size = 2048;
    opt.replication = 3;
    opt.seed = 99;
    opt.inline_repair = inline_repair;
    dfs = std::make_unique<dd::MiniDfs>(dd::ClusterTopology::flat(6), opt);
    journal = std::make_unique<dd::EditLog>(tmp.file("namenode.edits"));
    dfs->attach_edit_log(journal.get());
    image_path = tmp.file("namenode.fsimage");
    dd::FsImage::save(*dfs, image_path);
    record();
  }

  void record() {
    history.emplace_back(journal->bytes_written(), dfs->namespace_digest());
  }

  // Ingest, decommission, corrupt-report, move: one of each mutation class.
  void run_history() {
    dw::ingest(*dfs, "/logs/a", small_records(40, 5));
    record();
    dw::ingest(*dfs, "/logs/b", small_records(12, 6));
    record();
    dfs->decommission(1);
    record();
    // Report a (healthy-sibling) corrupt copy on some block.
    const auto& reps = dfs->block(0).replicas;
    ASSERT_GE(reps.size(), 2u);
    dfs->corrupt_replica(0, reps[0]);
    ASSERT_TRUE(dfs->report_corrupt_replica(0, reps[0]));
    record();
    // A balancer move.
    const auto& reps1 = dfs->block(1).replicas;
    for (dd::NodeId to = 0; to < 6; ++to) {
      if (dfs->is_active(to) && !dfs->is_local(1, to)) {
        dfs->move_replica(1, reps1[0], to);
        break;
      }
    }
    record();
  }
};

}  // namespace

// ---------------------------------------------------------------- EditLog --

TEST(EditLog, EncodeDecodeRoundTripsEveryOp) {
  std::vector<dd::EditRecord> records;
  records.push_back({.op = dd::EditOp::kCreateFile, .file = "/a/b"});
  records.push_back({.op = dd::EditOp::kDecommission, .node = 4});
  records.push_back({.op = dd::EditOp::kRemoveReplica, .block = 9, .node = 1});
  records.push_back({.op = dd::EditOp::kAddReplica, .block = 9, .node = 3});
  records.push_back(
      {.op = dd::EditOp::kMoveReplica, .block = 2, .node = 0, .node2 = 5});

  for (const auto& r : records) {
    const auto back = dd::EditLog::decode(dd::EditLog::encode(r));
    EXPECT_EQ(back.op, r.op);
    EXPECT_EQ(back.file, r.file);
    EXPECT_EQ(back.block, r.block);
    EXPECT_EQ(back.num_records, r.num_records);
    EXPECT_EQ(back.checksum, r.checksum);
    EXPECT_EQ(back.node, r.node);
    EXPECT_EQ(back.node2, r.node2);
    EXPECT_EQ(back.replicas, r.replicas);
    EXPECT_EQ(back.data, r.data);
  }
}

TEST(EditLog, DecodeRejectsGarbage) {
  EXPECT_THROW((void)dd::EditLog::decode(""), std::runtime_error);
  EXPECT_THROW((void)dd::EditLog::decode("\xff garbage"), std::runtime_error);
  // Opcode 2 is retired: even a well-formed whole-block body behind it
  // (block, file, count, CRC, replicas, bytes) is an unknown opcode.
  std::string retired(1, '\x02');
  dd::wire::put_u64(retired, 7);
  dd::wire::put_bytes(retired, "/a/b");
  dd::wire::put_u64(retired, 1);
  dd::wire::put_u32(retired, 0xdeadbeef);
  dd::wire::put_u32(retired, 1);
  dd::wire::put_u32(retired, 0);
  dd::wire::put_bytes(retired, "line\n");
  EXPECT_THROW((void)dd::EditLog::decode(retired), std::runtime_error);
  // Trailing bytes after a valid payload are corruption, not slack.
  auto payload = dd::EditLog::encode({.op = dd::EditOp::kDecommission, .node = 1});
  payload += "x";
  EXPECT_THROW((void)dd::EditLog::decode(payload), std::runtime_error);
}

TEST(EditLog, AppendReplayRoundTrip) {
  TempDir tmp;
  dd::EditLog log(tmp.file("edits"));
  log.append({.op = dd::EditOp::kCreateFile, .file = "/f"});
  log.append({.op = dd::EditOp::kAddReplica, .block = 3, .node = 2});
  const auto r = dd::EditLog::replay(log.path());
  EXPECT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.valid_bytes, log.bytes_written());
  EXPECT_FALSE(r.torn);
  EXPECT_EQ(r.frame_ends.size(), 2u);
  EXPECT_EQ(r.frame_ends.back(), log.bytes_written());
  EXPECT_EQ(r.records[1].op, dd::EditOp::kAddReplica);
}

TEST(EditLog, MissingFileReplaysEmpty) {
  const auto r = dd::EditLog::replay("/nonexistent/no-such-journal");
  EXPECT_TRUE(r.records.empty());
  EXPECT_EQ(r.valid_bytes, 0u);
}

TEST(EditLog, SealedLogRefusesAppends) {
  TempDir tmp;
  dd::EditLog log(tmp.file("edits"));
  log.append({.op = dd::EditOp::kCreateFile, .file = "/f"});
  log.seal();
  EXPECT_TRUE(log.sealed());
  EXPECT_THROW(log.append({.op = dd::EditOp::kCreateFile, .file = "/g"}),
               std::logic_error);
}

TEST(EditLog, CorruptedFrameStopsReplayAtPrefix) {
  TempDir tmp;
  dd::EditLog log(tmp.file("edits"));
  log.append({.op = dd::EditOp::kCreateFile, .file = "/f"});
  const auto first_end = log.bytes_written();
  log.append({.op = dd::EditOp::kAddReplica, .block = 1, .node = 1});
  log.append({.op = dd::EditOp::kAddReplica, .block = 2, .node = 2});
  // Flip a payload byte of the SECOND frame: replay keeps frame 1 only.
  flip_byte(log.path(), first_end + 9);
  const auto r = dd::EditLog::replay(log.path());
  EXPECT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.valid_bytes, first_end);
  EXPECT_TRUE(r.torn);
  EXPECT_GT(r.dropped_bytes, 0u);
}

// --------------------------------------------------------------- recovery --

TEST(Recovery, RecoverMatchesLiveDigestAtEveryMutationBoundary) {
  DurableCluster c;
  c.run_history();
  for (const auto& [offset, digest] : c.history) {
    const auto cut = c.tmp.file("edits.cut");
    copy_truncated(c.journal->path(), cut, offset);
    dd::RecoveryInfo info;
    const auto recovered = dd::MiniDfs::recover(c.image_path, cut, &info);
    EXPECT_EQ(recovered.namespace_digest(), digest)
        << "journal prefix of " << offset << " bytes";
    EXPECT_FALSE(info.torn);
  }
}

TEST(Recovery, TruncationAtEveryByteOffsetYieldsAValidPrefixState) {
  DurableCluster c;
  c.run_history();
  const auto full = dd::EditLog::replay(c.journal->path());
  ASSERT_FALSE(full.torn);
  const auto total = file_size(c.journal->path());
  ASSERT_EQ(total, full.valid_bytes);
  // Expected digest at every frame boundary, via recovery from each prefix.
  const auto cut = c.tmp.file("edits.cut");
  std::vector<std::uint64_t> frame_digests(full.frame_ends.size());
  for (std::size_t i = 0; i < full.frame_ends.size(); ++i) {
    copy_truncated(c.journal->path(), cut, full.frame_ends[i]);
    frame_digests[i] = dd::MiniDfs::recover(c.image_path, cut).namespace_digest();
  }
  const auto blank_digest =
      dd::FsImage::load(c.image_path).namespace_digest();

  for (std::uint64_t keep = 0; keep <= total; ++keep) {
    copy_truncated(c.journal->path(), cut, keep);
    const auto r = dd::EditLog::replay(cut);
    // The valid prefix is the largest run of whole frames that fits.
    EXPECT_LE(r.valid_bytes, keep);
    const bool at_boundary =
        r.valid_bytes == 0 ||
        std::find(full.frame_ends.begin(), full.frame_ends.end(),
                  r.valid_bytes) != full.frame_ends.end();
    EXPECT_TRUE(at_boundary) << "keep=" << keep;
    EXPECT_EQ(r.torn, r.valid_bytes != keep) << "keep=" << keep;
    // Recovery from any truncation is exactly the state at that boundary.
    const auto digest =
        dd::MiniDfs::recover(c.image_path, cut).namespace_digest();
    const auto it = std::find(full.frame_ends.begin(), full.frame_ends.end(),
                              r.valid_bytes);
    const auto expected =
        it == full.frame_ends.end()
            ? blank_digest
            : frame_digests[static_cast<std::size_t>(
                  it - full.frame_ends.begin())];
    EXPECT_EQ(digest, expected) << "keep=" << keep;
  }
}

TEST(Recovery, CheckpointPlusSuffixEqualsCheckpointPlusFullJournal) {
  DurableCluster c;
  dw::ingest(*c.dfs, "/logs/a", small_records(40, 5));
  // Mid-history checkpoint: everything so far is covered by the image.
  const auto mid_image = c.tmp.file("mid.fsimage");
  dd::FsImage::save(*c.dfs, mid_image);
  EXPECT_EQ(dd::FsImage::journal_covered(mid_image), c.journal->bytes_written());
  // More damage after the checkpoint.
  c.dfs->decommission(2);
  dw::ingest(*c.dfs, "/logs/b", small_records(10, 7));
  const auto live = c.dfs->namespace_digest();

  dd::RecoveryInfo from_mid;
  const auto a =
      dd::MiniDfs::recover(mid_image, c.journal->path(), &from_mid);
  dd::RecoveryInfo from_blank;
  const auto b =
      dd::MiniDfs::recover(c.image_path, c.journal->path(), &from_blank);
  EXPECT_EQ(a.namespace_digest(), live);
  EXPECT_EQ(b.namespace_digest(), live);
  // The mid checkpoint actually skipped the covered prefix; replaying the
  // FULL journal over it (idempotent apply) must also converge to `live`.
  EXPECT_GT(from_mid.skipped_frames, 0u);
  EXPECT_LT(from_mid.replayed_frames, from_blank.replayed_frames);
  EXPECT_EQ(from_blank.skipped_frames, 0u);
}

TEST(Recovery, CrashTruncateDropsTornTailOnly) {
  DurableCluster c;
  c.run_history();
  // Remember the state at the last recorded boundary, then tear 3 bytes off
  // the final frame: recovery must land on the previous frame's state.
  const auto full = dd::EditLog::replay(c.journal->path());
  ASSERT_GE(full.frame_ends.size(), 2u);
  const auto keep = full.frame_ends.back() - 3;
  c.dfs->crash_namenode(keep);
  EXPECT_TRUE(c.journal->sealed());
  EXPECT_EQ(c.dfs->edit_log(), nullptr);
  EXPECT_EQ(file_size(c.journal->path()), keep);

  dd::RecoveryInfo info;
  const auto recovered =
      dd::MiniDfs::recover(c.image_path, c.journal->path(), &info);
  EXPECT_TRUE(info.torn);
  EXPECT_GT(info.dropped_bytes, 0u);
  const auto cut = c.tmp.file("edits.prev");
  copy_truncated(c.journal->path(), cut,
                 full.frame_ends[full.frame_ends.size() - 2]);
  EXPECT_EQ(recovered.namespace_digest(),
            dd::MiniDfs::recover(c.image_path, cut).namespace_digest());
}

TEST(Recovery, CrashNameNodeFaultEventFiresThroughInjector) {
  DurableCluster c;
  dw::ingest(*c.dfs, "/logs/a", small_records(30, 5));
  const auto live = c.dfs->namespace_digest();
  dd::FaultInjector injector(
      *c.dfs, {{.at_task = 1, .kind = dd::FaultKind::kCrashNameNode}});
  injector.advance(5);
  EXPECT_EQ(injector.stats().namenode_crashes, 1u);
  EXPECT_TRUE(c.journal->sealed());
  const auto recovered =
      dd::MiniDfs::recover(c.image_path, c.journal->path());
  EXPECT_EQ(recovered.namespace_digest(), live);
}

TEST(Recovery, CrashNameNodeIsNoOpWithoutJournal) {
  dd::DfsOptions opt;
  opt.block_size = 2048;
  dd::MiniDfs dfs(dd::ClusterTopology::flat(4), opt);
  dw::ingest(dfs, "/logs/a", small_records(10, 3));
  dd::FaultInjector injector(
      dfs, {{.at_task = 1, .kind = dd::FaultKind::kCrashNameNode}});
  injector.advance(5);
  EXPECT_EQ(injector.stats().namenode_crashes, 0u);
}

// ---------------------------------------------------------------- FsImage --

TEST(FsImage, SaveLoadRoundTripAndAtomicity) {
  DurableCluster c;
  c.run_history();
  const auto path = c.tmp.file("check.fsimage");
  dd::FsImage::save(*c.dfs, path);
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "temp file must be renamed away";

  const auto loaded = dd::FsImage::load(path);
  EXPECT_EQ(loaded.namespace_digest(), c.dfs->namespace_digest());
  EXPECT_EQ(loaded.num_blocks(), c.dfs->num_blocks());
  EXPECT_EQ(loaded.num_active_nodes(), c.dfs->num_active_nodes());
  EXPECT_EQ(loaded.list_files(), c.dfs->list_files());
  // Replicas and bytes survive: every block is readable from the image.
  for (dd::BlockId b = 0; b < loaded.num_blocks(); ++b) {
    EXPECT_EQ(loaded.read_block(b), c.dfs->read_block(b));
    EXPECT_EQ(loaded.block(b).replicas, c.dfs->block(b).replicas);
  }

  const auto st = dd::FsImage::inspect(path);
  EXPECT_EQ(st.file_bytes, file_size(path));
  EXPECT_EQ(st.num_blocks, c.dfs->num_blocks());
  EXPECT_EQ(st.journal_covered, c.journal->bytes_written());
}

TEST(FsImage, BitFlipAndTruncationAreRejectedTyped) {
  DurableCluster c;
  dw::ingest(*c.dfs, "/logs/a", small_records(20, 5));
  const auto path = c.tmp.file("check.fsimage");
  dd::FsImage::save(*c.dfs, path);

  const auto corrupt = c.tmp.file("bad.fsimage");
  fs::copy_file(path, corrupt);
  flip_byte(corrupt, file_size(corrupt) / 2);
  EXPECT_THROW((void)dd::FsImage::load(corrupt), dd::FsImageError);

  const auto cut = c.tmp.file("cut.fsimage");
  copy_truncated(path, cut, file_size(path) - 5);
  EXPECT_THROW((void)dd::FsImage::load(cut), dd::FsImageError);
  EXPECT_THROW((void)dd::FsImage::load(c.tmp.file("missing.fsimage")),
               dd::FsImageError);
}

TEST(FsImage, VersionOneImageIsRejectedTyped) {
  DurableCluster c;
  dw::ingest(*c.dfs, "/logs/a", small_records(20, 5));
  const auto path = c.tmp.file("check.fsimage");
  dd::FsImage::save(*c.dfs, path);

  // Re-lay the image out as the retired version-1 format: version word 1,
  // no open-block section (the trailing u64 count, zero here), and a fresh
  // CRC32 trailer, so only the version can reject it.
  std::string raw;
  {
    std::ifstream in(path, std::ios::binary);
    raw.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::string body = raw.substr(0, raw.size() - 4 - 8);
  body[8] = 1;  // u32 version right after the u64 magic
  dd::wire::put_u32(body, datanet::common::crc32(body));
  const auto v1 = c.tmp.file("v1.fsimage");
  {
    std::ofstream out(v1, std::ios::binary | std::ios::trunc);
    out << body;
  }
  EXPECT_THROW((void)dd::FsImage::load(v1), dd::FsImageError);
  EXPECT_THROW((void)dd::FsImage::inspect(v1), dd::FsImageError);
}

TEST(FsImage, VersionTwoImageIsRejectedTyped) {
  DurableCluster c;
  dw::ingest(*c.dfs, "/logs/a", small_records(20, 5));
  const auto path = c.tmp.file("check.fsimage");
  dd::FsImage::save(*c.dfs, path);

  // Re-lay the image out as the retired version-2 format: version word 2 and
  // a u32 rack id per node between the node count and the active mask, with
  // a fresh CRC32 trailer, so only the version can reject it.
  std::string raw;
  {
    std::ifstream in(path, std::ios::binary);
    raw.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::string body = raw.substr(0, raw.size() - 4);
  body[8] = 2;  // u32 version right after the u64 magic
  constexpr std::size_t kActiveMaskAt = 37;  // past the u32 node count
  body.insert(kActiveMaskAt, std::string(4 * 6, '\0'));
  dd::wire::put_u32(body, datanet::common::crc32(body));
  const auto v2 = c.tmp.file("v2.fsimage");
  {
    std::ofstream out(v2, std::ios::binary | std::ios::trunc);
    out << body;
  }
  EXPECT_THROW((void)dd::FsImage::load(v2), dd::FsImageError);
  EXPECT_THROW((void)dd::FsImage::inspect(v2), dd::FsImageError);
}

TEST(FsImage, ChecksumValidInconsistentHeaderIsRejectedTyped) {
  DurableCluster c;
  dw::ingest(*c.dfs, "/logs/a", small_records(20, 5));
  const auto path = c.tmp.file("check.fsimage");
  dd::FsImage::save(*c.dfs, path);
  std::string raw;
  {
    std::ifstream in(path, std::ios::binary);
    raw.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string body = raw.substr(0, raw.size() - 4);
  const auto field = [&](std::size_t at, int width) {
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(body[at + i]))
           << (8 * i);
    }
    return v;
  };

  // Header: magic u64, version u32, block_size u64, replication u32, seed
  // u64, inline_repair u8, num_nodes u32, one active byte per node,
  // journal_covered u64, num_files u64; then each file's name (u64 length +
  // bytes) and u64 block count.
  constexpr std::size_t kBlockSizeAt = 12;
  constexpr std::size_t kReplicationAt = 20;
  constexpr std::size_t kNumNodesAt = 33;
  const std::size_t nodes = field(kNumNodesAt, 4);
  const std::size_t num_files_at = kNumNodesAt + 4 + nodes + 8;
  const std::size_t first_count_at =
      num_files_at + 8 + 8 + std::string("/logs/a").size();
  ASSERT_EQ(nodes, 6u);
  ASSERT_EQ(field(kBlockSizeAt, 8), 2048u);
  ASSERT_EQ(field(kReplicationAt, 4), 3u);
  ASSERT_EQ(field(num_files_at, 8), 1u);
  ASSERT_EQ(field(first_count_at, 8), c.dfs->blocks_of("/logs/a").size());

  struct Case {
    const char* what;
    std::size_t at;
    int width;
    std::uint64_t value;
  };
  const Case cases[] = {
      {"block_size 0", kBlockSizeAt, 8, 0},
      {"replication 0", kReplicationAt, 4, 0},
      {"replication above the node count", kReplicationAt, 4, 7},
      {"zero nodes", kNumNodesAt, 4, 0},
      {"node count past the image", kNumNodesAt, 4, 0xffffffffull},
      {"num_files 2^62", num_files_at, 8, 1ull << 62},
      {"file block count 2^61", first_count_at, 8, 1ull << 61},
  };
  const auto crafted = c.tmp.file("crafted.fsimage");
  for (const Case& k : cases) {
    std::string bad = body;
    for (int i = 0; i < k.width; ++i) {
      bad[k.at + i] = static_cast<char>((k.value >> (8 * i)) & 0xff);
    }
    dd::wire::put_u32(bad, datanet::common::crc32(bad));
    {
      std::ofstream out(crafted, std::ios::binary | std::ios::trunc);
      out << bad;
    }
    EXPECT_THROW((void)dd::FsImage::load(crafted), dd::FsImageError) << k.what;
  }
}

// --------------------------------------------------- ReplicationMonitor --

namespace {

// Non-durable cluster with deferred (monitor-driven) healing.
dd::MiniDfs deferred_cluster(std::uint32_t nodes, std::uint32_t replication,
                             std::uint64_t records = 60) {
  dd::DfsOptions opt;
  opt.block_size = 2048;
  opt.replication = replication;
  opt.seed = 31;
  opt.inline_repair = false;
  dd::MiniDfs dfs(dd::ClusterTopology::flat(nodes), opt);
  dw::ingest(dfs, "/logs/a", small_records(records, 9));
  return dfs;
}

}  // namespace

TEST(ReplicationMonitor, DeferredModeRecordsDamageWithoutRepairing) {
  auto dfs = deferred_cluster(8, 3);
  const auto before = dd::fsck(dfs);
  ASSERT_TRUE(before.healthy());
  dfs.decommission(0);
  const auto after = dd::fsck(dfs);
  EXPECT_GT(after.under_replicated, 0u) << "no inline healing in deferred mode";
}

TEST(ReplicationMonitor, DrainHealsKilledNodeBacklog) {
  auto dfs = deferred_cluster(8, 3);
  dfs.decommission(0);
  dfs.decommission(3);
  const auto damaged = dd::fsck(dfs).under_replicated;
  ASSERT_GT(damaged, 0u);

  dd::ReplicationMonitor monitor(dfs, {.max_repairs_per_tick = 2});
  const auto ticks = monitor.drain();
  EXPECT_GT(ticks, 0u);
  EXPECT_TRUE(dd::fsck(dfs).healthy());
  const auto& s = monitor.stats();
  EXPECT_EQ(s.healed_blocks, damaged);
  EXPECT_GE(s.repairs, damaged);
  EXPECT_EQ(s.unrepairable, 0u);
  EXPECT_GT(s.mttr_ticks, 0u);
  EXPECT_TRUE(monitor.queue().empty());
}

TEST(ReplicationMonitor, TickRespectsRateLimit) {
  auto dfs = deferred_cluster(8, 3, /*records=*/200);
  dfs.decommission(0);
  dfs.decommission(3);
  dd::ReplicationMonitor monitor(dfs, {.max_repairs_per_tick = 1});
  const auto pending = monitor.scan();
  ASSERT_GT(pending, 2u);
  EXPECT_EQ(monitor.tick(), 1u) << "one repair per tick at rate 1";
  EXPECT_EQ(monitor.tick(), 1u);
  EXPECT_EQ(monitor.stats().repairs, 2u);
}

TEST(ReplicationMonitor, ZeroRateIsRejected) {
  auto dfs = deferred_cluster(4, 2, 20);
  EXPECT_THROW(dd::ReplicationMonitor(dfs, {.max_repairs_per_tick = 0}),
               std::invalid_argument);
}

TEST(ReplicationMonitor, MostDamagedBlocksHealFirst) {
  auto dfs = deferred_cluster(8, 3);
  // Block A loses two replicas, block B one: A must head the queue.
  const auto& blocks_a = dfs.block(0).replicas;
  const auto a0 = blocks_a[0];
  const auto a1 = blocks_a[1];
  dfs.corrupt_replica(0, a0);
  ASSERT_TRUE(dfs.report_corrupt_replica(0, a0));
  dfs.corrupt_replica(0, a1);
  ASSERT_TRUE(dfs.report_corrupt_replica(0, a1));
  const auto b0 = dfs.block(1).replicas[0];
  dfs.corrupt_replica(1, b0);
  ASSERT_TRUE(dfs.report_corrupt_replica(1, b0));

  dd::ReplicationMonitor monitor(dfs, {.max_repairs_per_tick = 4});
  ASSERT_EQ(monitor.scan(), 2u);
  const auto queue = monitor.queue();
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue[0].block, 0u);
  EXPECT_EQ(queue[0].surviving, 1u);
  EXPECT_EQ(queue[1].block, 1u);
  EXPECT_EQ(queue[1].surviving, 2u);
}

TEST(ReplicationMonitor, ScrubDropsMarkedCopiesWithHealthySiblings) {
  auto dfs = deferred_cluster(8, 3);
  // Mark (but do not report) two copies bad: the scan's scrub pass is what
  // turns the marks into under-replication the queue can heal.
  dfs.corrupt_replica(0, dfs.block(0).replicas[0]);
  dfs.corrupt_replica(2, dfs.block(2).replicas[1]);
  ASSERT_TRUE(dd::fsck(dfs).healthy()) << "marks alone don't change counts";

  dd::ReplicationMonitor monitor(dfs, {.max_repairs_per_tick = 4});
  monitor.drain();
  EXPECT_EQ(monitor.stats().scrubbed_replicas, 2u);
  EXPECT_EQ(monitor.stats().healed_blocks, 2u);
  EXPECT_TRUE(dd::fsck(dfs).healthy());
  EXPECT_TRUE(dfs.corrupt_replica_marks(0).empty());
  EXPECT_TRUE(dfs.corrupt_replica_marks(2).empty());
}

TEST(ReplicationMonitor, MediaCorruptBlockIsUnrepairableButDrainTerminates) {
  auto dfs = deferred_cluster(6, 2);
  // Every copy of block 0 is bad (media corruption), then one holder dies:
  // no healthy source exists, so the block can never be healed.
  dfs.corrupt_block(0);
  dfs.decommission(dfs.block(0).replicas[0]);
  dd::ReplicationMonitor monitor(dfs, {.max_repairs_per_tick = 4});
  const auto ticks = monitor.drain();
  EXPECT_LT(ticks, 100u) << "drain must not spin on an unhealable block";
  EXPECT_GT(monitor.stats().unrepairable, 0u);
  // The healthy remainder of the cluster still converged.
  for (const auto& u : dd::under_replicated_blocks(dfs)) {
    EXPECT_EQ(u.block, 0u) << "only the destroyed block may stay degraded";
  }
}

TEST(ReplicationMonitor, HealingIsJournaledForRecovery) {
  DurableCluster c(/*inline_repair=*/false);
  dw::ingest(*c.dfs, "/logs/a", small_records(40, 5));
  c.dfs->decommission(1);
  dd::ReplicationMonitor monitor(*c.dfs, {.max_repairs_per_tick = 2});
  monitor.drain();
  ASSERT_TRUE(dd::fsck(*c.dfs).healthy());
  // Every monitor repair was a journaled kAddReplica: a recovered NameNode
  // sees the healed namespace, not the damaged one.
  const auto recovered =
      dd::MiniDfs::recover(c.image_path, c.journal->path());
  EXPECT_EQ(recovered.namespace_digest(), c.dfs->namespace_digest());
  EXPECT_TRUE(dd::fsck(recovered).healthy());
}

// ----------------------------------------------- runtime + monitor seam --

namespace {

dc::ExperimentConfig deferred_cfg() {
  dc::ExperimentConfig cfg;
  cfg.num_nodes = 8;
  cfg.block_size = 16 * 1024;
  cfg.replication = 3;
  cfg.seed = 17;
  cfg.inline_repair = false;
  return cfg;
}

}  // namespace

TEST(RuntimeRecovery, MonitorConvergesAfterKillAndCorruptPlan) {
  const auto cfg = deferred_cfg();
  auto ds = dc::make_movie_dataset(cfg, 24, 150);
  auto injector = dd::FaultInjector::random_plan(
      *ds.dfs, /*seed=*/23, ds.dfs->num_blocks(), /*kill_nodes=*/2,
      /*corrupt_replicas=*/3);

  dc::ChecksumRetryReadPolicy read(*ds.dfs, cfg.remote_read_penalty);
  dc::InjectedFaults faults(injector);
  dc::AnalyticBackend timing;
  dd::ReplicationMonitor monitor(*ds.dfs, {.max_repairs_per_tick = 2});
  dsch::DataNetScheduler sched;
  const dc::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
  const auto sel = dc::SelectionRuntime(read, faults, timing)
                       .with_replication_monitor(monitor)
                       .run(*ds.dfs, ds.path, ds.hot_keys[0], sched, &net, cfg);

  // Acceptance: after the drain the namespace is fully healed.
  const auto post = dd::fsck(*ds.dfs);
  EXPECT_EQ(post.missing_blocks, 0u);
  EXPECT_EQ(post.under_replicated, 0u);
  EXPECT_EQ(sel.report.under_replicated, 0u);
  EXPECT_GT(sel.report.recovery.healed_blocks, 0u);
  EXPECT_EQ(sel.report.recovery.pending_repairs, 0u);
  EXPECT_GT(sel.report.recovery.monitor_ticks, 0u);
  EXPECT_GT(sel.report.recovery.mttr_ticks, 0u);
}

TEST(RuntimeRecovery, HealedReportIsBitIdenticalAcrossEngineThreads) {
  std::vector<std::string> reports;
  for (const std::uint32_t threads : {1u, 4u}) {
    auto cfg = deferred_cfg();
    cfg.execution_threads = threads;
    auto ds = dc::make_movie_dataset(cfg, 24, 150);
    auto injector = dd::FaultInjector::random_plan(
        *ds.dfs, /*seed=*/23, ds.dfs->num_blocks(), /*kill_nodes=*/2,
        /*corrupt_replicas=*/3);
    dc::ChecksumRetryReadPolicy read(*ds.dfs, cfg.remote_read_penalty);
    dc::InjectedFaults faults(injector);
    dc::AnalyticBackend timing;
    dd::ReplicationMonitor monitor(*ds.dfs, {.max_repairs_per_tick = 2});
    dsch::DataNetScheduler sched;
    const dc::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
    const auto sel =
        dc::SelectionRuntime(read, faults, timing)
            .with_replication_monitor(monitor)
            .run(*ds.dfs, ds.path, ds.hot_keys[0], sched, &net, cfg);
    reports.push_back(dm::report_to_json(sel.report, /*include_output=*/true));
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_NE(reports[0].find("\"recovery\""), std::string::npos);
  EXPECT_NE(reports[0].find("\"healed_blocks\""), std::string::npos);
}

TEST(RuntimeRecovery, EventSimBackendCarriesRecoveryCounters) {
  const auto cfg = deferred_cfg();
  auto ds = dc::make_movie_dataset(cfg, 24, 150);
  ds.dfs->decommission(0);  // pre-run damage; the run itself is clean

  const dc::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
  const auto graph = net.scheduling_graph(ds.hot_keys[0]);
  dc::DirectReadPolicy read(*ds.dfs, cfg.remote_read_penalty);
  dc::NoFaults faults;
  datanet::sim::SelectionSimOptions sopt;
  sopt.cluster.num_nodes = cfg.num_nodes;
  datanet::sim::EventSimBackend backend(*ds.dfs, sopt);
  dd::ReplicationMonitor monitor(*ds.dfs, {.max_repairs_per_tick = 2});
  dsch::DataNetScheduler sched;
  const auto sel = dc::SelectionRuntime(read, faults, backend)
                       .with_replication_monitor(monitor)
                       .run_graph(*ds.dfs, graph, ds.hot_keys[0], sched, cfg,
                                  /*materialize=*/false);
  // Timing-only path: the drain still ran and the event-sim report carries
  // the recovery section.
  EXPECT_TRUE(dd::fsck(*ds.dfs).healthy());
  EXPECT_GT(sel.report.recovery.healed_blocks, 0u);
  EXPECT_EQ(sel.report.under_replicated, 0u);
  const auto json = dm::report_to_json(sel.report, false);
  EXPECT_NE(json.find("\"recovery\""), std::string::npos);
}

TEST(RuntimeRecovery, CleanRunsSurfaceUnderReplicationToo) {
  // (b) the under-replication count is reported even when nothing failed.
  auto cfg = deferred_cfg();
  cfg.inline_repair = true;
  auto ds = dc::make_movie_dataset(cfg, 16, 100);
  dc::DirectReadPolicy read(*ds.dfs, cfg.remote_read_penalty);
  dc::NoFaults faults;
  dc::AnalyticBackend timing;
  dsch::DataNetScheduler sched;
  const auto clean = dc::SelectionRuntime(read, faults, timing)
                         .run(*ds.dfs, ds.path, ds.hot_keys[0], sched, nullptr, cfg);
  EXPECT_EQ(clean.report.under_replicated, 0u);

  // Deferred mode without a monitor: the stranded replicas are VISIBLE in
  // the clean-path report rather than silently healed.
  auto cfg2 = deferred_cfg();
  auto ds2 = dc::make_movie_dataset(cfg2, 16, 100);
  ds2.dfs->decommission(0);
  const auto expected = dd::fsck(*ds2.dfs).under_replicated;
  ASSERT_GT(expected, 0u);
  dc::DirectReadPolicy read2(*ds2.dfs, cfg2.remote_read_penalty);
  dc::NoFaults faults2;
  dc::AnalyticBackend timing2;
  dsch::DataNetScheduler sched2;
  const auto degraded =
      dc::SelectionRuntime(read2, faults2, timing2)
          .run(*ds2.dfs, ds2.path, ds2.hot_keys[0], sched2, nullptr, cfg2);
  EXPECT_EQ(degraded.report.under_replicated, expected);
}

// ------------------------------------------------ MetaStore durability --

namespace {

dc::StoredDataset meta_dataset() {
  dc::ExperimentConfig cfg;
  cfg.num_nodes = 8;
  cfg.block_size = 16 * 1024;
  cfg.seed = 11;
  return dc::make_movie_dataset(cfg, 16, 100);
}

}  // namespace

TEST(MetaStoreDurability, SaveIsAtomicAndLeavesNoTempFile) {
  TempDir tmp;
  const auto ds = meta_dataset();
  const auto em = de::ElasticMapArray::build(*ds.dfs, ds.path, {.alpha = 0.3});
  const auto path = tmp.file("meta.bin");
  de::MetaStore::save(em, path);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  // Saving over an existing store also goes through the tmp+rename path.
  de::MetaStore::save(em, path);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  (void)de::MetaStore::load(path);

  de::ShardedMetaStore::save(em, tmp.file("meta"), 3);
  for (std::uint32_t s = 0; s < 3; ++s) {
    const auto shard = de::ShardedMetaStore::shard_file(tmp.file("meta"), s);
    EXPECT_TRUE(fs::exists(shard));
    EXPECT_FALSE(fs::exists(shard + ".tmp"));
  }
}

TEST(MetaStoreDurability, BitFlippedBlobFailsWithTypedError) {
  TempDir tmp;
  const auto ds = meta_dataset();
  const auto em = de::ElasticMapArray::build(*ds.dfs, ds.path, {.alpha = 0.3});
  const auto path = tmp.file("meta.bin");
  de::MetaStore::save(em, path);

  // Flip a byte near the END of the file — inside some blob, past the
  // header/index — and both the eager and lazy paths must refuse it.
  const auto corrupt = tmp.file("meta.corrupt");
  fs::copy_file(path, corrupt);
  flip_byte(corrupt, file_size(corrupt) - 7);
  EXPECT_THROW((void)de::MetaStore::load(corrupt), de::MetaStoreCorruptError);

  de::MetaStore::Reader reader(corrupt);
  bool threw = false;
  for (std::uint64_t b = 0; b < reader.num_blocks(); ++b) {
    try {
      (void)reader.load_block(b);
    } catch (const de::MetaStoreCorruptError&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw) << "some blob must fail its CRC through the lazy Reader";
}

TEST(MetaStoreDurability, TruncatedStoreFailsWithTypedError) {
  TempDir tmp;
  const auto ds = meta_dataset();
  const auto em = de::ElasticMapArray::build(*ds.dfs, ds.path, {.alpha = 0.3});
  const auto path = tmp.file("meta.bin");
  de::MetaStore::save(em, path);

  const auto cut = tmp.file("meta.cut");
  for (const double frac : {0.1, 0.5, 0.95}) {
    copy_truncated(path, cut,
                   static_cast<std::uint64_t>(
                       static_cast<double>(file_size(path)) * frac));
    EXPECT_THROW((void)de::MetaStore::load(cut), de::MetaStoreCorruptError);
  }
  // Bad magic is typed too.
  const auto junk = tmp.file("meta.junk");
  std::ofstream(junk, std::ios::binary) << "not a metastore at all";
  EXPECT_THROW((void)de::MetaStore::load(junk), de::MetaStoreCorruptError);
  EXPECT_THROW(de::MetaStore::Reader r(junk), de::MetaStoreCorruptError);
}
