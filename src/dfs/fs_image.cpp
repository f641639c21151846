#include "dfs/fs_image.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/hash.hpp"
#include "dfs/edit_log.hpp"
#include "dfs/wire.hpp"

namespace datanet::dfs {

namespace {

constexpr std::uint64_t kMagic = 0x30474d4946534644ull;  // "DFSFIMG0"
// The one image version. The header stores the node count and the active
// mask; the open-block section (id, file, extents_applied per open block)
// after the block table lets checkpoints taken mid-ingestion restore
// in-flight blocks.
constexpr std::uint32_t kVersion = 3;

std::string read_whole_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw FsImageError("FsImage: cannot open " + path);
  return std::string{std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>()};
}

// CRC-verify the image body; shared by parse/inspect.
// Returns the payload (everything before the 4-byte CRC trailer).
std::string_view checked_body(const std::string& raw, const std::string& path) {
  if (raw.size() < 4) throw FsImageError("FsImage: truncated image " + path);
  const std::string_view body(raw.data(), raw.size() - 4);
  wire::Cursor trailer(std::string_view(raw).substr(raw.size() - 4));
  if (common::crc32(body) != trailer.u32()) {
    throw FsImageError("FsImage: checksum mismatch in " + path);
  }
  return body;
}

struct Header {
  DfsOptions options;
  std::vector<bool> active;  // one entry per node
  std::uint64_t journal_covered = 0;
  std::uint64_t num_files = 0;  // cursor is left at the file table
};

// Reads and validates the header, so a checksum-valid image whose fields
// contradict each other fails here with FsImageError instead of escaping as
// a MiniDfs constructor or allocation error. Counts are bounded by the bytes
// left over their minimum encoded size before anything is reserved.
Header read_header(wire::Cursor& c, const std::string& path) {
  Header h;
  if (c.u64() != kMagic) throw FsImageError("FsImage: bad magic in " + path);
  if (c.u32() != kVersion) {
    throw FsImageError("FsImage: unsupported version in " + path);
  }
  h.options.block_size = c.u64();
  h.options.replication = c.u32();
  h.options.seed = c.u64();
  h.options.inline_repair = c.u8() != 0;
  const std::uint32_t num_nodes = c.u32();
  if (num_nodes == 0 || num_nodes > c.remaining()) {
    throw FsImageError("FsImage: bad node count in " + path);
  }
  if (h.options.block_size == 0 || h.options.replication == 0 ||
      h.options.replication > num_nodes) {
    throw FsImageError("FsImage: bad block size or replication in " + path);
  }
  h.active.reserve(num_nodes);
  for (std::uint32_t n = 0; n < num_nodes; ++n) h.active.push_back(c.u8() != 0);
  h.journal_covered = c.u64();
  h.num_files = c.u64();
  // A file entry is at least a u64 name length and a u64 block count.
  if (h.num_files > c.remaining() / 16) {
    throw FsImageError("FsImage: file count exceeds image in " + path);
  }
  return h;
}

}  // namespace

void FsImage::save(const MiniDfs& dfs, const std::string& path) {
  std::string out;
  wire::put_u64(out, kMagic);
  wire::put_u32(out, kVersion);
  wire::put_u64(out, dfs.options_.block_size);
  wire::put_u32(out, dfs.options_.replication);
  wire::put_u64(out, dfs.options_.seed);
  out.push_back(dfs.options_.inline_repair ? 1 : 0);
  wire::put_u32(out, dfs.topology_.num_nodes());
  for (const bool active : dfs.node_active_) out.push_back(active ? 1 : 0);
  wire::put_u64(out, dfs.journal_ != nullptr ? dfs.journal_->bytes_written() : 0);

  // File table, sorted by name so the image bytes are deterministic across
  // unordered_map iteration orders.
  std::vector<std::string> names = dfs.list_files();
  std::sort(names.begin(), names.end());
  wire::put_u64(out, names.size());
  for (const std::string& name : names) {
    wire::put_bytes(out, name);
    const auto& ids = dfs.files_.at(name);
    wire::put_u64(out, ids.size());
    for (const BlockId id : ids) wire::put_u64(out, id);
  }

  // Block table in id order; file membership lives in the table above.
  wire::put_u64(out, dfs.blocks_.size());
  for (const BlockInfo& b : dfs.blocks_) {
    wire::put_u64(out, b.id);
    wire::put_u32(out, b.index_in_file);
    wire::put_u64(out, b.num_records);
    wire::put_u32(out, b.checksum);
    wire::put_u32(out, static_cast<std::uint32_t>(b.replicas.size()));
    for (const NodeId n : b.replicas) wire::put_u32(out, n);
    wire::put_bytes(out, dfs.block_data_[b.id]);
  }

  // Open-block section: which dense ids are still unsealed, the file
  // each belongs to (absent from the file table until seal), and the extent
  // count — persisted so checkpoint + journal-suffix replay stays idempotent
  // (kAppendExtent frames at or below extents_applied are skipped).
  wire::put_u64(out, dfs.open_blocks_.size());
  for (const auto& [id, state] : dfs.open_blocks_) {
    wire::put_u64(out, id);
    wire::put_bytes(out, state.file);
    wire::put_u64(out, state.extents_applied);
  }

  wire::put_u32(out, common::crc32(out));

  // Crash atomicity: never open the live image for writing. A crash before
  // the rename leaves the old image; rename itself is atomic on POSIX.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) throw FsImageError("FsImage: cannot open " + tmp);
    f.write(out.data(), static_cast<std::streamsize>(out.size()));
    f.flush();
    if (!f) throw FsImageError("FsImage: write failed for " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) throw FsImageError("FsImage: rename failed for " + path);
}

MiniDfs FsImage::load(const std::string& path) { return parse(path).dfs; }

FsImage::Loaded FsImage::parse(const std::string& path) {
  const std::string raw = read_whole_file(path);
  wire::Cursor c(checked_body(raw, path));
  try {
    const Header h = read_header(c, path);
    const auto num_nodes = static_cast<std::uint32_t>(h.active.size());
    MiniDfs dfs(ClusterTopology::flat(num_nodes), h.options);
    dfs.node_active_ = h.active;
    dfs.active_nodes_ = static_cast<std::uint32_t>(
        std::count(h.active.begin(), h.active.end(), true));

    std::vector<std::pair<std::string, std::vector<BlockId>>> file_table;
    file_table.reserve(h.num_files);
    for (std::uint64_t i = 0; i < h.num_files; ++i) {
      std::string name = c.bytes();
      const std::uint64_t nblocks = c.u64();
      if (nblocks > c.remaining() / 8) {
        throw FsImageError("FsImage: block count exceeds image");
      }
      std::vector<BlockId> ids;
      ids.reserve(nblocks);
      for (std::uint64_t j = 0; j < nblocks; ++j) ids.push_back(c.u64());
      file_table.emplace_back(std::move(name), std::move(ids));
    }

    const std::uint64_t num_blocks = c.u64();
    for (std::uint64_t i = 0; i < num_blocks; ++i) {
      BlockInfo b;
      b.id = c.u64();
      if (b.id != i) throw FsImageError("FsImage: non-dense block ids");
      b.index_in_file = c.u32();
      b.num_records = c.u64();
      b.checksum = c.u32();
      const std::uint32_t nreps = c.u32();
      if (nreps > num_nodes) {
        throw FsImageError("FsImage: replica count exceeds cluster");
      }
      for (std::uint32_t r = 0; r < nreps; ++r) {
        const NodeId n = c.u32();
        if (n >= num_nodes) throw FsImageError("FsImage: bad replica node");
        b.replicas.push_back(n);
        dfs.node_blocks_[n].push_back(b.id);
      }
      std::string data = c.bytes();
      b.size_bytes = data.size();
      dfs.total_bytes_ += b.size_bytes;
      dfs.blocks_.push_back(std::move(b));
      dfs.block_data_.push_back(std::move(data));
      dfs.push_block_runtime_state(MiniDfs::kUnknown);  // recompute on read
    }

    for (auto& [name, ids] : file_table) {
      for (const BlockId id : ids) {
        if (id >= num_blocks) throw FsImageError("FsImage: bad block id in file");
        dfs.blocks_[id].file = name;
      }
      dfs.files_.emplace(std::move(name), std::move(ids));
    }

    const std::uint64_t num_open = c.u64();
    for (std::uint64_t i = 0; i < num_open; ++i) {
      const BlockId id = c.u64();
      if (id >= num_blocks) throw FsImageError("FsImage: bad open block id");
      std::string file = c.bytes();
      const std::uint64_t extents = c.u64();
      if (!dfs.files_.contains(file)) {
        throw FsImageError("FsImage: open block in unknown file");
      }
      dfs.blocks_[id].file = file;
      dfs.open_blocks_.emplace(
          id, MiniDfs::OpenBlockState{std::move(file), extents});
    }
    if (!c.exhausted()) throw FsImageError("FsImage: trailing bytes in " + path);
    // Blocks were loaded behind the incremental counter's back.
    dfs.recount_under_replicated();
    return {std::move(dfs), h.journal_covered};
  } catch (const std::runtime_error& e) {
    // Bounds failures inside wire::Cursor surface as the generic truncation
    // error; rewrap so callers get one typed error for any bad image.
    throw FsImageError(std::string("FsImage: ") + e.what() + " (" + path + ")");
  }
}

FsImage::Stats FsImage::inspect(const std::string& path) {
  const std::string raw = read_whole_file(path);
  wire::Cursor c(checked_body(raw, path));
  const Header h = read_header(c, path);
  Stats s;
  s.file_bytes = raw.size();
  s.journal_covered = h.journal_covered;
  s.num_files = h.num_files;
  s.num_nodes = static_cast<std::uint32_t>(h.active.size());
  s.active_nodes = static_cast<std::uint32_t>(
      std::count(h.active.begin(), h.active.end(), true));
  // Skip the file table to reach the block count.
  for (std::uint64_t i = 0; i < h.num_files; ++i) {
    (void)c.bytes();
    const std::uint64_t nblocks = c.u64();
    for (std::uint64_t j = 0; j < nblocks; ++j) (void)c.u64();
  }
  s.num_blocks = c.u64();
  // Skip the block table to reach the open-block section.
  for (std::uint64_t i = 0; i < s.num_blocks; ++i) {
    (void)c.u64();  // id
    (void)c.u32();  // index_in_file
    (void)c.u64();  // num_records
    (void)c.u32();  // checksum
    const std::uint32_t nreps = c.u32();
    for (std::uint32_t r = 0; r < nreps; ++r) (void)c.u32();
    (void)c.bytes();
  }
  s.num_open_blocks = c.u64();
  return s;
}

MiniDfs MiniDfs::recover(const std::string& image_path,
                         const std::string& journal_path, RecoveryInfo* info) {
  auto [dfs, covered] = FsImage::parse(image_path);
  const EditLog::Replay replay = EditLog::replay(journal_path);
  RecoveryInfo out;
  out.dropped_bytes = replay.dropped_bytes;
  out.torn = replay.torn;
  for (std::size_t i = 0; i < replay.records.size(); ++i) {
    // Frames the checkpoint already covers are skipped; apply_edit is
    // idempotent anyway, so a conservative image offset only costs time.
    if (replay.frame_ends[i] <= covered) {
      ++out.skipped_frames;
      continue;
    }
    dfs.apply_edit(replay.records[i]);
    ++out.replayed_frames;
  }
  if (info != nullptr) *info = out;
  return std::move(dfs);  // a structured binding is not moved implicitly
}

}  // namespace datanet::dfs
