// Tests for the block write path: the open-block journal ops (kOpenBlock /
// kAppendExtent / kSealBlock), their torn-tail behavior and the seal-frame
// check on replay, dfs::Ingestor group commit and group-size-independent
// block boundaries, the open-block quarantine on the query surface, FsImage
// checkpoints taken mid-ingestion, crash recovery with open-block adoption
// (a continued run is content- and boundary-identical to one that never
// crashed), the fsck open-block audit, and the serving cache's delta
// maintenance of a growing file with its stale-byte bound
// (ElasticMapArray::stale_bytes). The crash sweeps
// mirror recovery_test.cpp: every group-commit boundary and every byte
// offset of an ingestion journal must recover to a valid committed prefix.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "dfs/edit_log.hpp"
#include "dfs/fs_image.hpp"
#include "dfs/fsck.hpp"
#include "dfs/ingest.hpp"
#include "dfs/mini_dfs.hpp"
#include "elasticmap/elastic_map.hpp"
#include "server/dataset_cache.hpp"
#include "workload/dataset.hpp"
#include "workload/movie_gen.hpp"
#include "workload/record.hpp"

namespace dd = datanet::dfs;
namespace de = datanet::elasticmap;
namespace dw = datanet::workload;
namespace srv = datanet::server;
namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path dir;
  TempDir() {
    dir = fs::temp_directory_path() /
          ("datanet_ingest_test_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~TempDir() { fs::remove_all(dir); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (dir / name).string();
  }
};

std::vector<std::string> movie_lines(std::uint64_t n, std::uint64_t seed) {
  dw::MovieGenOptions o;
  o.num_records = n;
  o.num_movies = 6;
  o.seed = seed;
  std::vector<std::string> lines;
  for (const auto& r : dw::MovieLogGenerator(o).generate()) {
    lines.push_back(dw::encode_record(r));
  }
  return lines;
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

// Full logical content of a file: sealed blocks in list order, then any open
// block (at most one per path under the single-mutator contract).
std::string file_content(const dd::MiniDfs& dfs, const std::string& path) {
  std::string out;
  for (const dd::BlockId b : dfs.blocks_of(path)) {
    out += dfs.read_block(b);
  }
  for (const auto& open : dfs.open_blocks()) {
    if (open.file == path) out += dfs.read_block(open.id);
  }
  return out;
}

dd::DfsOptions small_opts() {
  dd::DfsOptions opt;
  opt.block_size = 1024;
  opt.replication = 3;
  opt.seed = 99;
  return opt;
}

// A journaled cluster streaming records through an Ingestor, recording
// (journal offset, namespace digest) after every journal movement — i.e. at
// every group-commit / seal boundary. Index 0 is the blank namespace.
struct IngestCluster {
  TempDir tmp;
  std::unique_ptr<dd::EditLog> journal;
  std::unique_ptr<dd::MiniDfs> dfs;
  std::string image_path;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> history;

  IngestCluster() {
    dfs = std::make_unique<dd::MiniDfs>(dd::ClusterTopology::flat(6),
                                        small_opts());
    journal = std::make_unique<dd::EditLog>(tmp.file("ingest.edits"));
    dfs->attach_edit_log(journal.get());
    image_path = tmp.file("ingest.fsimage");
    dd::FsImage::save(*dfs, image_path);
    record();
  }

  void record() {
    history.emplace_back(journal->bytes_written(), dfs->namespace_digest());
  }

  // Stream `lines` through an Ingestor, recording every commit boundary.
  void run_stream(const std::vector<std::string>& lines,
                  std::uint64_t group) {
    dd::Ingestor ing(*dfs, "/logs/stream", {.group_records = group});
    record();  // create() is itself journaled
    for (const auto& line : lines) {
      ing.append(line);
      if (journal->bytes_written() != history.back().first) record();
    }
    ing.close();
    record();
  }
};

}  // namespace

// --------------------------------------------------- journal ops (framing) --

TEST(EditLogIngest, EncodeDecodeRoundTripsStreamingOps) {
  std::vector<dd::EditRecord> records;
  records.push_back({.op = dd::EditOp::kOpenBlock,
                     .file = "/logs/stream",
                     .block = 11,
                     .replicas = {4, 0, 2}});
  records.push_back({.op = dd::EditOp::kAppendExtent,
                     .block = 11,
                     .num_records = 64,
                     .data = std::string("r1\nr2\n"),
                     .extent_seq = 3});
  records.push_back({.op = dd::EditOp::kSealBlock,
                     .block = 11,
                     .num_records = 200,
                     .checksum = 0xfeedface});
  for (const auto& r : records) {
    const auto back = dd::EditLog::decode(dd::EditLog::encode(r));
    EXPECT_EQ(back.op, r.op);
    EXPECT_EQ(back.file, r.file);
    EXPECT_EQ(back.block, r.block);
    EXPECT_EQ(back.num_records, r.num_records);
    EXPECT_EQ(back.checksum, r.checksum);
    EXPECT_EQ(back.replicas, r.replicas);
    EXPECT_EQ(back.data, r.data);
    EXPECT_EQ(back.extent_seq, r.extent_seq);
  }
  // Trailing bytes after a valid streaming payload are corruption.
  auto payload =
      dd::EditLog::encode({.op = dd::EditOp::kSealBlock, .block = 1});
  payload += "x";
  EXPECT_THROW((void)dd::EditLog::decode(payload), std::runtime_error);
}

// ------------------------------------------------------- open-block model --

TEST(OpenBlocks, QuarantinedFromQuerySurfaceUntilSeal) {
  dd::MiniDfs mini(dd::ClusterTopology::flat(6), small_opts());
  mini.create("/logs/a").close();
  const dd::BlockId b = mini.open_block("/logs/a");
  mini.append_extent(b, "one\n", 1);
  mini.append_extent(b, "two\nthree\n", 2);

  // Not published: the file's block list is still empty...
  EXPECT_TRUE(mini.blocks_of("/logs/a").empty());
  // ...but fsck and recovery can see it.
  const auto open = mini.open_blocks();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].id, b);
  EXPECT_EQ(open[0].file, "/logs/a");
  EXPECT_EQ(open[0].extents_applied, 2u);
  EXPECT_EQ(open[0].size_bytes, 14u);
  EXPECT_EQ(open[0].num_records, 3u);
  const auto report = dd::fsck(mini);
  EXPECT_EQ(report.open_blocks, 1u);
  EXPECT_EQ(report.open_bytes, 14u);

  // Mutator-side reads work; the concurrent-query surface refuses.
  EXPECT_EQ(mini.read_block(b), "one\ntwo\nthree\n");
  EXPECT_THROW((void)mini.read_block_pinned(b), std::invalid_argument);
  EXPECT_THROW(mini.corrupt_block(b), std::invalid_argument);

  mini.seal_block(b);
  ASSERT_EQ(mini.blocks_of("/logs/a").size(), 1u);
  EXPECT_EQ(mini.blocks_of("/logs/a")[0], b);
  EXPECT_TRUE(mini.open_blocks().empty());
  EXPECT_EQ(mini.read_block_pinned(b).data, "one\ntwo\nthree\n");
}

TEST(Ingestor, GroupSizeNeverChangesTheNamespace) {
  dw::MovieGenOptions o;
  o.num_records = 300;
  o.num_movies = 6;
  o.seed = 5;
  const auto records = dw::MovieLogGenerator(o).generate();

  // create() is the whole-block group; 7 and 1 commit many extents a block.
  dd::MiniDfs whole(dd::ClusterTopology::flat(6), small_opts());
  dw::ingest(whole, "/logs/stream", records);
  for (const std::uint64_t group : {7u, 1u}) {
    dd::MiniDfs grouped(dd::ClusterTopology::flat(6), small_opts());
    {
      dd::Ingestor ing(grouped, "/logs/stream", {.group_records = group});
      for (const auto& r : records) ing.append(dw::encode_record(r));
    }
    // Same records, same seed, same boundary rule, same one-draw-per-block
    // placement order: the namespaces are bit-identical.
    EXPECT_EQ(grouped.namespace_digest(), whole.namespace_digest())
        << "group " << group;
    EXPECT_EQ(grouped.blocks_of("/logs/stream").size(),
              whole.blocks_of("/logs/stream").size());
    EXPECT_EQ(file_content(grouped, "/logs/stream"),
              file_content(whole, "/logs/stream"));
  }
  EXPECT_GT(whole.blocks_of("/logs/stream").size(), 1u);
}

namespace {
// Every block of `path`, sealed or open, carries the CRC of its bytes.
void expect_checksums_match_bytes(const dd::MiniDfs& dfs,
                                  const std::string& path,
                                  const std::string& where) {
  std::vector<dd::BlockId> ids = dfs.blocks_of(path);
  for (const auto& open : dfs.open_blocks()) ids.push_back(open.id);
  for (const dd::BlockId id : ids) {
    EXPECT_EQ(dfs.block(id).checksum,
              datanet::common::crc32(dfs.read_block(id)))
        << where << ", block " << id;
    for (const dd::NodeId n : dfs.block(id).replicas) {
      EXPECT_TRUE(dfs.replica_healthy(id, n)) << where << ", block " << id;
    }
  }
}
}  // namespace

// append_extent chains the block CRC over each new extent instead of
// rehashing the block; the running value must still be the CRC of the whole
// block after every group commit, at every seal, and after replay.
TEST(Ingestor, RunningChecksumIsCrcOfBlockBytes) {
  const auto lines = movie_lines(300, 6);
  for (const std::uint64_t group :
       {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{64},
        std::numeric_limits<std::uint64_t>::max()}) {
    dd::MiniDfs mini(dd::ClusterTopology::flat(6), small_opts());
    dd::Ingestor ing(mini, "/logs/stream", {.group_records = group});
    std::uint64_t commits = 0;
    std::uint64_t seals = 0;
    for (const auto& line : lines) {
      ing.append(line);
      if (ing.stats().group_commits != commits ||
          ing.stats().blocks_sealed != seals) {
        commits = ing.stats().group_commits;
        seals = ing.stats().blocks_sealed;
        expect_checksums_match_bytes(mini, "/logs/stream",
                                     "group " + std::to_string(group));
      }
    }
    ing.close();
    expect_checksums_match_bytes(mini, "/logs/stream",
                                 "closed, group " + std::to_string(group));
    EXPECT_GT(mini.blocks_of("/logs/stream").size(), 1u);
  }

  // Recovery from a journal torn inside a frame, at every frame of a stream
  // with several extents per block: replay rebuilds the running CRC too.
  IngestCluster c;
  c.run_stream(movie_lines(120, 9), /*group=*/3);
  const auto full = dd::EditLog::replay(c.journal->path());
  const auto cut = c.tmp.file("edits.cut");
  std::uint64_t multi_extent_open = 0;
  for (const std::uint64_t end : full.frame_ends) {
    copy_truncated(c.journal->path(), cut, end + 5);
    const auto recovered = dd::MiniDfs::recover(c.image_path, cut);
    expect_checksums_match_bytes(recovered, "/logs/stream",
                                 "cut at " + std::to_string(end + 5));
    for (const auto& open : recovered.open_blocks()) {
      if (open.extents_applied > 1) ++multi_extent_open;
    }
  }
  EXPECT_GT(multi_extent_open, 0u);
}

// ------------------------------------------------------------ crash sweeps --

TEST(IngestRecovery, EveryGroupCommitBoundaryRecoversExactly) {
  IngestCluster c;
  c.run_stream(movie_lines(160, 3), /*group=*/16);
  ASSERT_GT(c.history.size(), 4u);
  for (const auto& [offset, digest] : c.history) {
    const auto cut = c.tmp.file("edits.cut");
    copy_truncated(c.journal->path(), cut, offset);
    dd::RecoveryInfo info;
    const auto recovered = dd::MiniDfs::recover(c.image_path, cut, &info);
    EXPECT_EQ(recovered.namespace_digest(), digest)
        << "kill at journal offset " << offset;
    EXPECT_FALSE(info.torn);
  }
}

TEST(IngestRecovery, TornTailAtEveryByteOffsetYieldsACommittedPrefix) {
  IngestCluster c;
  c.run_stream(movie_lines(48, 4), /*group=*/8);
  const auto full = dd::EditLog::replay(c.journal->path());
  ASSERT_FALSE(full.torn);
  const auto total = static_cast<std::uint64_t>(
      fs::file_size(c.journal->path()));
  ASSERT_EQ(total, full.valid_bytes);

  const auto cut = c.tmp.file("edits.cut");
  std::vector<std::uint64_t> frame_digests(full.frame_ends.size());
  for (std::size_t i = 0; i < full.frame_ends.size(); ++i) {
    copy_truncated(c.journal->path(), cut, full.frame_ends[i]);
    frame_digests[i] =
        dd::MiniDfs::recover(c.image_path, cut).namespace_digest();
  }
  const auto blank_digest = dd::FsImage::load(c.image_path).namespace_digest();

  for (std::uint64_t keep = 0; keep <= total; ++keep) {
    copy_truncated(c.journal->path(), cut, keep);
    const auto r = dd::EditLog::replay(cut);
    EXPECT_LE(r.valid_bytes, keep);
    EXPECT_EQ(r.torn, r.valid_bytes != keep) << "keep=" << keep;
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

TEST(IngestRecovery, SealFrameMustMatchReplayedExtents) {
  TempDir tmp;
  const auto image = tmp.file("blank.fsimage");
  dd::FsImage::save(dd::MiniDfs(dd::ClusterTopology::flat(6), small_opts()),
                    image);
  const std::string bytes = "one\ntwo\n";
  const auto recover_with_seal = [&](std::uint64_t num_records,
                                     std::uint32_t checksum) {
    const auto path = tmp.file("hand.edits");
    {
      dd::EditLog log(path);
      log.append({.op = dd::EditOp::kCreateFile, .file = "/f"});
      log.append({.op = dd::EditOp::kOpenBlock,
                  .file = "/f",
                  .block = 0,
                  .replicas = {0, 1, 2}});
      log.append({.op = dd::EditOp::kAppendExtent,
                  .block = 0,
                  .num_records = 2,
                  .data = bytes,
                  .extent_seq = 0});
      log.append({.op = dd::EditOp::kSealBlock,
                  .block = 0,
                  .num_records = num_records,
                  .checksum = checksum});
    }
    return dd::MiniDfs::recover(image, path);
  };

  const std::uint32_t crc = datanet::common::crc32(bytes);
  const auto sealed = recover_with_seal(2, crc);
  ASSERT_EQ(sealed.blocks_of("/f").size(), 1u);
  EXPECT_EQ(sealed.read_block(0), bytes);
  EXPECT_THROW((void)recover_with_seal(2, crc ^ 1u), std::runtime_error);
  EXPECT_THROW((void)recover_with_seal(3, crc), std::runtime_error);
}

TEST(IngestRecovery, MidIngestionCheckpointCoversOpenBlock) {
  IngestCluster c;
  const auto lines = movie_lines(120, 8);
  dd::Ingestor ing(*c.dfs, "/logs/stream", {.group_records = 8});
  for (std::size_t i = 0; i < 60; ++i) ing.append(lines[i]);
  ing.flush();  // durable, block still open
  ASSERT_EQ(c.dfs->open_blocks().size(), 1u);

  // FsImage: the open block (bytes + extent count) rides the checkpoint.
  const auto mid_image = c.tmp.file("mid.fsimage");
  dd::FsImage::save(*c.dfs, mid_image);
  EXPECT_EQ(dd::FsImage::inspect(mid_image).journal_covered,
            c.journal->bytes_written());
  EXPECT_EQ(dd::FsImage::load(mid_image).namespace_digest(),
            c.dfs->namespace_digest());

  for (std::size_t i = 60; i < lines.size(); ++i) ing.append(lines[i]);
  ing.close();
  const auto live = c.dfs->namespace_digest();

  // Checkpoint + suffix == blank image + full journal == live, and replaying
  // the FULL journal over the mid checkpoint (idempotent skip of the covered
  // prefix, open-block ops included) converges too.
  dd::RecoveryInfo from_mid;
  const auto a = dd::MiniDfs::recover(mid_image, c.journal->path(), &from_mid);
  dd::RecoveryInfo from_blank;
  const auto b =
      dd::MiniDfs::recover(c.image_path, c.journal->path(), &from_blank);
  EXPECT_EQ(a.namespace_digest(), live);
  EXPECT_EQ(b.namespace_digest(), live);
  EXPECT_GT(from_mid.skipped_frames, 0u);
  EXPECT_LT(from_mid.replayed_frames, from_blank.replayed_frames);
}

TEST(IngestRecovery, CrashedRunContinuedMatchesNeverCrashedReference) {
  const auto lines = movie_lines(200, 6);
  const std::uint64_t group = 8;
  const std::string path = "/logs/stream";

  // Reference: the same stream, never crashed, no journal.
  dd::MiniDfs ref(dd::ClusterTopology::flat(6), small_opts());
  {
    dd::Ingestor ing(ref, path, {.group_records = group});
    for (const auto& line : lines) ing.append(line);
  }
  const std::string want = file_content(ref, path);

  // Live run killed mid-stream at a non-boundary point (5 records buffered).
  IngestCluster c;
  const std::size_t kill_at = 117;
  auto ing = std::make_unique<dd::Ingestor>(*c.dfs, path,
                                            dd::IngestOptions{group});
  for (std::size_t i = 0; i < kill_at; ++i) ing->append(lines[i]);
  const auto crash_journal = c.tmp.file("ingest.edits.crash");
  fs::copy_file(c.journal->path(), crash_journal,
                fs::copy_options::overwrite_existing);
  auto recovered = dd::MiniDfs::recover(c.image_path, crash_journal);
  EXPECT_EQ(recovered.namespace_digest(), c.dfs->namespace_digest());
  ing.reset();  // the dead writer's buffer never reached the crash journal

  // The recovered prefix is exactly the committed groups: a whole number of
  // group commits, never more than one group behind the kill point.
  const std::string got = file_content(recovered, path);
  ASSERT_TRUE(want.compare(0, got.size(), got) == 0)
      << "recovered content is not a prefix of the stream";
  const auto committed = static_cast<std::size_t>(
      std::count(got.begin(), got.end(), '\n'));
  // Not necessarily a multiple of `group`: block-boundary seals flush the
  // partial group they interrupt. The loss bound is what matters — the tail
  // that died in the buffer is strictly smaller than one group.
  EXPECT_LE(committed, kill_at);
  EXPECT_LT(kill_at - committed, group) << "a group-committed batch was lost";

  // Continue on the recovered instance: fresh journal + checkpoint (the
  // recover_shard protocol), and the new Ingestor ADOPTS the open block the
  // crash left behind so boundaries stay identical to the reference.
  dd::EditLog journal2(c.tmp.file("ingest.edits2"));
  recovered.attach_edit_log(&journal2);
  dd::FsImage::save(recovered, c.tmp.file("ingest.fsimage2"));
  {
    dd::Ingestor cont(recovered, path, {.group_records = group});
    for (std::size_t i = committed; i < lines.size(); ++i) {
      cont.append(lines[i]);
    }
  }
  EXPECT_EQ(file_content(recovered, path), want);
  EXPECT_EQ(recovered.blocks_of(path).size(), ref.blocks_of(path).size());
  EXPECT_TRUE(recovered.open_blocks().empty());

  // And the maps built over both agree exactly.
  const auto ref_map = de::ElasticMapArray::build(ref, path, {});
  const auto got_map = de::ElasticMapArray::build(recovered, path, {});
  const dw::GroundTruth truth(ref, path);
  for (const auto id : truth.ids_by_size()) {
    EXPECT_EQ(got_map.estimate_total_size(id),
              ref_map.estimate_total_size(id));
  }
}

TEST(IngestRecovery, OpenBlockAuditCatchesLostGroupCommit) {
  IngestCluster c;
  const auto lines = movie_lines(40, 9);
  dd::Ingestor ing(*c.dfs, "/logs/stream", {.group_records = 8});
  for (const auto& line : lines) ing.append(line);
  ing.flush();
  ASSERT_EQ(c.dfs->open_blocks().size(), 1u);

  // Durable state from the full journal agrees with the live NameNode.
  const auto clean = dd::MiniDfs::recover(c.image_path, c.journal->path());
  const auto ok = dd::audit_open_blocks(*c.dfs, clean);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.open_blocks, 1u);
  EXPECT_GT(ok.open_bytes, 0u);

  // Drop the final extent frame from the journal: the recovered open block
  // is now SHORTER than the live one — the audit must flag it.
  const auto full = dd::EditLog::replay(c.journal->path());
  ASSERT_GE(full.frame_ends.size(), 2u);
  const auto cut = c.tmp.file("edits.cut");
  copy_truncated(c.journal->path(), cut,
                 full.frame_ends[full.frame_ends.size() - 2]);
  const auto behind = dd::MiniDfs::recover(c.image_path, cut);
  const auto bad = dd::audit_open_blocks(*c.dfs, behind);
  EXPECT_FALSE(bad.ok());
  EXPECT_GE(bad.mismatched, 1u);
  ASSERT_FALSE(bad.violations.empty());
}

// ------------------------------------------------ cache staleness ledger --

namespace {
// Bytes of every sealed block of `path`: what a fresh ElasticMap would cover.
std::uint64_t sealed_bytes(const dd::MiniDfs& dfs, const std::string& path) {
  std::uint64_t bytes = 0;
  for (const dd::BlockId b : dfs.blocks_of(path)) {
    bytes += dfs.block(b).size_bytes;
  }
  return bytes;
}
}  // namespace

TEST(CacheStaleness, DeltaApplyMatchesFullRebuildEstimates) {
  dd::MiniDfs mini(dd::ClusterTopology::flat(6), small_opts());
  const auto lines = movie_lines(240, 11);
  const std::string path = "/logs/stream";
  mini.create(path).close();

  srv::DatasetCache cache;
  EXPECT_EQ(cache.get(mini, path)->meta().num_blocks(), 0u);

  dd::Ingestor ing(mini, path, {.group_records = 16});
  for (const auto& line : lines) ing.append(line);
  ing.close();
  ASSERT_GT(mini.blocks_of(path).size(), 4u);

  // Everything sealed since the bundle was built is stale: the bound is
  // the whole file, and it holds for every key against a fresh build.
  const auto stale = cache.get_stale(path);
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->meta().stale_bytes(mini), sealed_bytes(mini, path));
  const auto fresh = de::ElasticMapArray::build(mini, path, {});
  const dw::GroundTruth truth(mini, path);
  for (const auto id : truth.ids_by_size()) {
    const std::uint64_t gap = fresh.estimate_total_size(id) -
                              stale->meta().estimate_total_size(id);
    EXPECT_LE(gap, stale->meta().stale_bytes(mini));
  }

  // One get delta-applies every sealed block; the bound collapses to zero
  // and the map answers exactly like a from-scratch build.
  const auto caught_up = cache.get(mini, path);
  EXPECT_EQ(cache.stats().delta_applies, 1u);
  EXPECT_EQ(cache.stats().rebuilds, 1u);
  EXPECT_EQ(caught_up->meta().num_blocks(), mini.blocks_of(path).size());
  EXPECT_EQ(caught_up->meta().stale_bytes(mini), 0u);
  for (const auto id : truth.ids_by_size()) {
    EXPECT_EQ(caught_up->meta().estimate_total_size(id),
              fresh.estimate_total_size(id));
  }
}

TEST(CacheStaleness, PeakStaleFractionGrowsWithGetInterval) {
  // Warm the cache over the first eighth of a stream (a cold cache is 100%
  // stale by definition), then stream the rest, calling get() every
  // `interval` seals and recording the stale-byte fraction of the bundle
  // get_stale returns right after each seal. Rarer gets leave more stale
  // bytes behind, so the peak fraction can only grow with the interval; at
  // every interval a final get must still answer exactly like a fresh build.
  // Prints one "interval N peak F" line per interval (EXPERIMENTS.md's
  // χ-drift table).
  dd::DfsOptions dopt;
  dopt.block_size = 16 * 1024;
  dopt.replication = 3;
  dopt.seed = 42;
  const auto lines = movie_lines(20000, 2016);
  const std::string path = "/logs/stream";
  const std::size_t warmup = lines.size() / 8;
  std::vector<double> peaks;
  for (const std::uint64_t interval : {1u, 2u, 4u, 8u, 16u}) {
    dd::MiniDfs mini(dd::ClusterTopology::flat(16), dopt);
    {
      dd::Ingestor warm(mini, path, {.group_records = 64});
      for (std::size_t i = 0; i < warmup; ++i) warm.append(lines[i]);
    }
    srv::DatasetCache cache;
    (void)cache.get(mini, path);
    double peak = 0.0;
    std::uint64_t seals = 0;
    dd::Ingestor ing(mini, path, {.group_records = 64});
    ing.on_seal = [&](dd::BlockId) {
      const auto stale = cache.get_stale(path)->meta().stale_bytes(mini);
      peak = std::max(peak, static_cast<double>(stale) /
                                static_cast<double>(sealed_bytes(mini, path)));
      if (++seals % interval == 0) (void)cache.get(mini, path);
    };
    for (std::size_t i = warmup; i < lines.size(); ++i) ing.append(lines[i]);
    ing.close();
    ASSERT_GT(seals, 16u) << "the stream must span the widest interval";
    std::printf("interval %llu peak %.4f\n",
                static_cast<unsigned long long>(interval), peak);
    if (!peaks.empty()) {
      EXPECT_GE(peak, peaks.back()) << "interval " << interval;
    }
    peaks.push_back(peak);

    const auto net = cache.get(mini, path);
    EXPECT_EQ(net->meta().stale_bytes(mini), 0u);
    EXPECT_EQ(cache.stats().rebuilds, 1u) << "interval " << interval;
    const auto fresh = de::ElasticMapArray::build(mini, path, {});
    const dw::GroundTruth truth(mini, path);
    for (const auto id : truth.ids_by_size()) {
      EXPECT_EQ(net->meta().estimate_total_size(id),
                fresh.estimate_total_size(id))
          << "interval " << interval;
    }
  }
  EXPECT_GT(peaks.back(), peaks.front());
}

TEST(CacheStaleness, InvalidateAndGetResetsStaleBytes) {
  dd::MiniDfs mini(dd::ClusterTopology::flat(6), small_opts());
  const std::string path = "/logs/stream";
  const auto lines = movie_lines(120, 13);

  // Cover a small prefix, then grow without a get.
  dd::Ingestor ing(mini, path, {.group_records = 16});
  for (std::size_t i = 0; i < 20; ++i) ing.append(lines[i]);
  ing.seal();
  srv::DatasetCache cache;
  const auto covered = cache.get(mini, path)->meta().num_blocks();
  ASSERT_GT(covered, 0u);
  EXPECT_EQ(cache.get_stale(path)->meta().stale_bytes(mini), 0u);

  for (std::size_t i = 20; i < lines.size(); ++i) ing.append(lines[i]);
  ing.close();
  EXPECT_GT(cache.get_stale(path)->meta().stale_bytes(mini), 0u);

  // A full rebuild resets staleness and is counted apart from deltas.
  cache.invalidate(path);
  const auto rebuilt = cache.get(mini, path);
  EXPECT_EQ(rebuilt->meta().num_blocks(), mini.blocks_of(path).size());
  EXPECT_EQ(rebuilt->meta().stale_bytes(mini), 0u);
  EXPECT_EQ(cache.stats().rebuilds, 2u);
  EXPECT_EQ(cache.stats().delta_applies, 0u);
}
