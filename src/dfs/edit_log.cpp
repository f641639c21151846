#include "dfs/edit_log.hpp"

#include <filesystem>
#include <stdexcept>

#include "common/hash.hpp"
#include "dfs/wire.hpp"

namespace datanet::dfs {

EditLog::EditLog(std::string path)
    : path_(std::move(path)),
      file_(path_, std::ios::binary | std::ios::trunc) {
  if (!file_) throw std::runtime_error("EditLog: cannot open " + path_);
}

void EditLog::append(const EditRecord& record) {
  if (sealed_) throw std::logic_error("EditLog: append after crash/seal");
  const std::string payload = encode(record);
  std::string frame;
  frame.reserve(8 + payload.size());
  wire::put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  wire::put_u32(frame, common::crc32(payload));
  frame.append(payload);
  file_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  file_.flush();
  if (!file_) throw std::runtime_error("EditLog: write failed for " + path_);
  bytes_written_ += frame.size();
}

void EditLog::seal() {
  if (sealed_) return;
  file_.flush();
  file_.close();
  sealed_ = true;
}

void EditLog::crash_truncate(std::uint64_t keep_bytes) {
  if (!sealed_) {
    file_.flush();
    file_.close();
    sealed_ = true;
  }
  std::error_code ec;
  const auto size = std::filesystem::file_size(path_, ec);
  if (ec) throw std::runtime_error("EditLog: cannot stat " + path_);
  if (keep_bytes < size) {
    std::filesystem::resize_file(path_, keep_bytes, ec);
    if (ec) throw std::runtime_error("EditLog: cannot truncate " + path_);
    bytes_written_ = keep_bytes;
  }
}

EditLog::Replay EditLog::replay(const std::string& path) {
  Replay out;
  std::ifstream f(path, std::ios::binary);
  if (!f) return out;  // no journal = empty replay
  const std::string all{std::istreambuf_iterator<char>(f),
                        std::istreambuf_iterator<char>()};
  std::uint64_t pos = 0;
  while (pos < all.size()) {
    if (all.size() - pos < 8) break;  // torn frame header
    wire::Cursor header(std::string_view(all).substr(pos, 8));
    const std::uint32_t len = header.u32();
    const std::uint32_t crc = header.u32();
    if (all.size() - pos - 8 < len) break;  // torn payload
    const std::string_view payload = std::string_view(all).substr(pos + 8, len);
    if (common::crc32(payload) != crc) break;  // bit-flipped or torn rewrite
    try {
      out.records.push_back(decode(payload));
    } catch (const std::exception&) {
      break;  // undecodable payload that happens to pass CRC: stop cleanly
    }
    pos += 8 + len;
    out.frame_ends.push_back(pos);
  }
  out.valid_bytes = pos;
  out.dropped_bytes = all.size() - pos;
  out.torn = out.dropped_bytes > 0;
  return out;
}

std::string EditLog::encode(const EditRecord& record) {
  std::string out;
  out.push_back(static_cast<char>(record.op));
  switch (record.op) {
    case EditOp::kCreateFile:
      wire::put_bytes(out, record.file);
      break;
    case EditOp::kDecommission:
      wire::put_u32(out, record.node);
      break;
    case EditOp::kRemoveReplica:
    case EditOp::kAddReplica:
      wire::put_u64(out, record.block);
      wire::put_u32(out, record.node);
      break;
    case EditOp::kMoveReplica:
      wire::put_u64(out, record.block);
      wire::put_u32(out, record.node);
      wire::put_u32(out, record.node2);
      break;
    case EditOp::kOpenBlock:
      wire::put_u64(out, record.block);
      wire::put_bytes(out, record.file);
      wire::put_u32(out, static_cast<std::uint32_t>(record.replicas.size()));
      for (const NodeId n : record.replicas) wire::put_u32(out, n);
      break;
    case EditOp::kAppendExtent:
      wire::put_u64(out, record.block);
      wire::put_u64(out, record.extent_seq);
      wire::put_u64(out, record.num_records);
      wire::put_bytes(out, record.data);
      break;
    case EditOp::kSealBlock:
      wire::put_u64(out, record.block);
      wire::put_u64(out, record.num_records);
      wire::put_u32(out, record.checksum);
      break;
  }
  return out;
}

EditRecord EditLog::decode(std::string_view payload) {
  wire::Cursor c(payload);
  EditRecord rec;
  rec.op = static_cast<EditOp>(c.u8());
  switch (rec.op) {
    case EditOp::kCreateFile:
      rec.file = c.bytes();
      break;
    case EditOp::kDecommission:
      rec.node = c.u32();
      break;
    case EditOp::kRemoveReplica:
    case EditOp::kAddReplica:
      rec.block = c.u64();
      rec.node = c.u32();
      break;
    case EditOp::kMoveReplica:
      rec.block = c.u64();
      rec.node = c.u32();
      rec.node2 = c.u32();
      break;
    case EditOp::kOpenBlock: {
      rec.block = c.u64();
      rec.file = c.bytes();
      const std::uint32_t nreps = c.u32();
      if (nreps > c.remaining() / 4) {
        throw std::runtime_error("EditLog: corrupt replica count");
      }
      rec.replicas.reserve(nreps);
      for (std::uint32_t i = 0; i < nreps; ++i) rec.replicas.push_back(c.u32());
      break;
    }
    case EditOp::kAppendExtent:
      rec.block = c.u64();
      rec.extent_seq = c.u64();
      rec.num_records = c.u64();
      rec.data = c.bytes();
      break;
    case EditOp::kSealBlock:
      rec.block = c.u64();
      rec.num_records = c.u64();
      rec.checksum = c.u32();
      break;
    default:
      throw std::runtime_error("EditLog: unknown opcode");
  }
  if (!c.exhausted()) throw std::runtime_error("EditLog: trailing bytes");
  return rec;
}

}  // namespace datanet::dfs
