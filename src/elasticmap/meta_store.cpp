#include "elasticmap/meta_store.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "common/hash.hpp"

namespace datanet::elasticmap {

namespace {

constexpr std::uint64_t kMagic = 0x44417441534e4554ULL;  // "DAtASNET"
constexpr std::uint64_t kVersion = 2;

void check_version(std::uint64_t v) {
  if (v != kVersion) throw MetaStoreCorruptError("MetaStore: bad version");
}

void put_u64(std::ofstream& f, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  f.write(buf, 8);
}

void put_f64(std::ofstream& f, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  put_u64(f, bits);
}

std::uint64_t get_u64(std::istream& f) {
  char buf[8];
  f.read(buf, 8);
  if (!f) throw MetaStoreCorruptError("MetaStore: truncated file");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i])) << (8 * i);
  }
  return v;
}

double get_f64(std::istream& f) {
  const std::uint64_t bits = get_u64(f);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

// Bytes between the stream's current position and end-of-file. Counts and
// lengths read from the file are untrusted: every one is checked against
// this before it sizes an allocation, so a corrupt or truncated store fails
// with a typed error instead of a multi-gigabyte resize / bad_alloc.
std::uint64_t bytes_remaining(std::istream& f) {
  const auto pos = f.tellg();
  f.seekg(0, std::ios::end);
  const auto end = f.tellg();
  f.seekg(pos);
  if (pos < 0 || end < pos) throw MetaStoreCorruptError("MetaStore: truncated file");
  return static_cast<std::uint64_t>(end - pos);
}

// Per-entry index footprint: global_index + block_id + offset + length +
// CRC32 (stored widened to u64).
constexpr std::uint64_t kIndexEntryBytes = 40;

struct StoredEntry {
  std::uint64_t global_index;
  dfs::BlockId block_id;
  std::string blob;
};

// Write one store file holding the given (already serialized) entries.
void write_store(const std::string& file_path, const std::string& dataset_path,
                 std::uint64_t raw_bytes, const BuildOptions& options,
                 const std::vector<StoredEntry>& entries) {
  // Crash atomicity: build the file beside the target and rename over it, so
  // the live store is never open for writing and a crash mid-save leaves the
  // previous version intact.
  const std::string tmp_path = file_path + ".tmp";
  {
    std::ofstream f(tmp_path, std::ios::binary | std::ios::trunc);
    if (!f) throw std::runtime_error("MetaStore: cannot open " + tmp_path);
    put_u64(f, kMagic);
    put_u64(f, kVersion);
    put_u64(f, raw_bytes);
    put_f64(f, options.alpha);
    put_f64(f, options.bloom_fpp);
    put_u64(f, dataset_path.size());
    f.write(dataset_path.data(),
            static_cast<std::streamsize>(dataset_path.size()));
    put_u64(f, entries.size());

    // Index: (global_index, block_id, offset, length, crc32) per entry.
    // Offsets are relative to the end of the index.
    std::uint64_t offset = 0;
    for (const auto& e : entries) {
      put_u64(f, e.global_index);
      put_u64(f, e.block_id);
      put_u64(f, offset);
      put_u64(f, e.blob.size());
      put_u64(f, common::crc32(e.blob));
      offset += e.blob.size();
    }
    for (const auto& e : entries) {
      f.write(e.blob.data(), static_cast<std::streamsize>(e.blob.size()));
    }
    f.flush();
    if (!f) throw std::runtime_error("MetaStore: write failed for " + tmp_path);
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, file_path, ec);
  if (ec) throw std::runtime_error("MetaStore: rename failed for " + file_path);
}

struct StoreContents {
  std::string dataset_path;
  std::uint64_t raw_bytes;
  BuildOptions options;
  std::vector<StoredEntry> entries;
};

StoreContents read_store(const std::string& file_path) {
  std::ifstream f(file_path, std::ios::binary);
  if (!f) throw std::runtime_error("MetaStore: cannot open " + file_path);
  if (get_u64(f) != kMagic) throw MetaStoreCorruptError("MetaStore: bad magic");
  check_version(get_u64(f));
  StoreContents out;
  out.raw_bytes = get_u64(f);
  out.options.alpha = get_f64(f);
  out.options.bloom_fpp = get_f64(f);
  const std::uint64_t path_len = get_u64(f);
  if (path_len > bytes_remaining(f)) {
    throw MetaStoreCorruptError("MetaStore: corrupt path length");
  }
  out.dataset_path.resize(path_len);
  f.read(out.dataset_path.data(), static_cast<std::streamsize>(path_len));
  if (!f) throw MetaStoreCorruptError("MetaStore: truncated file");
  const std::uint64_t n = get_u64(f);
  if (n > bytes_remaining(f) / kIndexEntryBytes) {
    throw MetaStoreCorruptError("MetaStore: corrupt entry count");
  }
  struct RawIdx {
    std::uint64_t global, bid, off, len;
    std::uint32_t crc;
  };
  std::vector<RawIdx> idx(n);
  for (auto& e : idx) {
    e.global = get_u64(f);
    e.bid = get_u64(f);
    e.off = get_u64(f);
    e.len = get_u64(f);
    e.crc = static_cast<std::uint32_t>(get_u64(f));
  }
  const auto blobs_begin = f.tellg();
  const std::uint64_t blob_region = bytes_remaining(f);
  out.entries.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (idx[i].len > blob_region || idx[i].off > blob_region - idx[i].len) {
      throw MetaStoreCorruptError("MetaStore: corrupt blob range");
    }
    out.entries[i].global_index = idx[i].global;
    out.entries[i].block_id = idx[i].bid;
    out.entries[i].blob.resize(idx[i].len);
    f.seekg(blobs_begin + static_cast<std::streamoff>(idx[i].off));
    f.read(out.entries[i].blob.data(), static_cast<std::streamsize>(idx[i].len));
    if (!f) throw MetaStoreCorruptError("MetaStore: truncated blob");
    if (common::crc32(out.entries[i].blob) != idx[i].crc) {
      throw MetaStoreCorruptError("MetaStore: blob checksum mismatch");
    }
  }
  return out;
}

ElasticMapArray assemble(StoreContents&& contents) {
  std::sort(contents.entries.begin(), contents.entries.end(),
            [](const StoredEntry& a, const StoredEntry& b) {
              return a.global_index < b.global_index;
            });
  std::vector<BlockMeta> metas;
  std::vector<dfs::BlockId> ids;
  metas.reserve(contents.entries.size());
  ids.reserve(contents.entries.size());
  for (std::uint64_t i = 0; i < contents.entries.size(); ++i) {
    if (contents.entries[i].global_index != i) {
      throw MetaStoreCorruptError("MetaStore: missing block in store");
    }
    metas.push_back(BlockMeta::deserialize(contents.entries[i].blob));
    ids.push_back(contents.entries[i].block_id);
  }
  return ElasticMapArray::from_parts(std::move(contents.dataset_path),
                                     contents.options, std::move(metas),
                                     std::move(ids), contents.raw_bytes);
}

std::vector<StoredEntry> serialize_all(const ElasticMapArray& array) {
  std::vector<StoredEntry> entries(array.num_blocks());
  for (std::uint64_t i = 0; i < array.num_blocks(); ++i) {
    entries[i].global_index = i;
    entries[i].block_id = array.block_id(i);
    entries[i].blob = array.block_meta(i).serialize();
  }
  return entries;
}

}  // namespace

void MetaStore::save(const ElasticMapArray& array, const std::string& file_path) {
  write_store(file_path, array.path(), array.raw_bytes(), array.options(),
              serialize_all(array));
}

ElasticMapArray MetaStore::load(const std::string& file_path) {
  return assemble(read_store(file_path));
}

MetaStore::Reader::Reader(const std::string& file_path)
    : file_(file_path, std::ios::binary) {
  if (!file_) throw std::runtime_error("MetaStore::Reader: cannot open " + file_path);
  if (get_u64(file_) != kMagic) throw MetaStoreCorruptError("Reader: bad magic");
  check_version(get_u64(file_));
  raw_bytes_ = get_u64(file_);
  (void)get_f64(file_);  // alpha
  (void)get_f64(file_);  // fpp
  const std::uint64_t path_len = get_u64(file_);
  if (path_len > bytes_remaining(file_)) {
    throw MetaStoreCorruptError("Reader: corrupt path length");
  }
  dataset_path_.resize(path_len);
  file_.read(dataset_path_.data(), static_cast<std::streamsize>(path_len));
  if (!file_) throw MetaStoreCorruptError("Reader: truncated file");
  const std::uint64_t n = get_u64(file_);
  if (n > bytes_remaining(file_) / kIndexEntryBytes) {
    throw MetaStoreCorruptError("Reader: corrupt entry count");
  }
  index_.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    auto& e = index_[i];
    const std::uint64_t global = get_u64(file_);
    e.block_id = get_u64(file_);
    e.offset = get_u64(file_);
    e.length = get_u64(file_);
    e.crc = static_cast<std::uint32_t>(get_u64(file_));
    // The lazy reader addresses blocks positionally, so it requires a full
    // (non-sharded) store whose entries are in global order.
    if (global != i) throw MetaStoreCorruptError("Reader: store is sharded/unordered");
  }
  blobs_begin_ = file_.tellg();
  const std::uint64_t blob_region = bytes_remaining(file_);
  for (const auto& e : index_) {
    if (e.length > blob_region || e.offset > blob_region - e.length) {
      throw MetaStoreCorruptError("Reader: corrupt blob range");
    }
  }
}

BlockMeta MetaStore::Reader::load_block(std::uint64_t block_index) {
  if (block_index >= index_.size()) throw std::out_of_range("Reader::load_block");
  const auto& e = index_[block_index];
  std::string blob(e.length, '\0');
  file_.seekg(blobs_begin_ + static_cast<std::streamoff>(e.offset));
  file_.read(blob.data(), static_cast<std::streamsize>(e.length));
  if (!file_) throw MetaStoreCorruptError("Reader: truncated blob");
  if (common::crc32(blob) != e.crc) {
    throw MetaStoreCorruptError("Reader: blob checksum mismatch");
  }
  return BlockMeta::deserialize(blob);
}

dfs::BlockId MetaStore::Reader::block_id(std::uint64_t block_index) const {
  if (block_index >= index_.size()) throw std::out_of_range("Reader::block_id");
  return index_[block_index].block_id;
}

std::string ShardedMetaStore::shard_file(const std::string& prefix,
                                         std::uint32_t shard) {
  return prefix + ".shard" + std::to_string(shard);
}

void ShardedMetaStore::save(const ElasticMapArray& array, const std::string& prefix,
                            std::uint32_t num_shards) {
  if (num_shards == 0) throw std::invalid_argument("ShardedMetaStore: 0 shards");
  const auto all = serialize_all(array);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    std::vector<StoredEntry> shard_entries;
    for (std::uint64_t i = s; i < all.size(); i += num_shards) {
      shard_entries.push_back(all[i]);
    }
    write_store(shard_file(prefix, s), array.path(), array.raw_bytes(),
                array.options(), shard_entries);
  }
}

ElasticMapArray ShardedMetaStore::load(const std::string& prefix,
                                       std::uint32_t num_shards) {
  if (num_shards == 0) throw std::invalid_argument("ShardedMetaStore: 0 shards");
  StoreContents merged;
  bool first = true;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    auto part = read_store(shard_file(prefix, s));
    if (first) {
      merged.dataset_path = part.dataset_path;
      merged.raw_bytes = part.raw_bytes;
      merged.options = part.options;
      first = false;
    } else if (part.dataset_path != merged.dataset_path ||
               part.raw_bytes != merged.raw_bytes ||
               part.options.alpha != merged.options.alpha ||
               part.options.bloom_fpp != merged.options.bloom_fpp) {
      // Every shard carries the same header; any disagreement means the
      // files were mixed from different builds.
      throw std::runtime_error("ShardedMetaStore: shards disagree on dataset");
    }
    for (auto& e : part.entries) merged.entries.push_back(std::move(e));
  }
  return assemble(std::move(merged));
}

}  // namespace datanet::elasticmap
