#pragma once
// Little-endian byte-buffer primitives shared by the dfs persistence plane
// (EditLog frames, FsImage checkpoints). Every read is bounds-checked against
// the buffer, so torn or corrupt inputs surface as typed errors instead of
// out-of-range reads or attacker-sized allocations.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace datanet::dfs::wire {

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

// Length-prefixed byte string.
inline void put_bytes(std::string& out, std::string_view bytes) {
  put_u64(out, bytes.size());
  out.append(bytes);
}

// Bounds-checked sequential reader over a serialized buffer.
class Cursor {
 public:
  explicit Cursor(std::string_view buf) : buf_(buf) {}

  [[nodiscard]] std::uint64_t remaining() const noexcept {
    return buf_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == buf_.size(); }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(buf_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::string bytes() {
    const std::uint64_t len = u64();
    need(len);
    std::string out(buf_.substr(pos_, len));
    pos_ += len;
    return out;
  }

 private:
  void need(std::uint64_t n) const {
    if (remaining() < n) {
      throw std::runtime_error("dfs::wire: truncated buffer");
    }
  }

  std::string_view buf_;
  std::size_t pos_ = 0;
};

}  // namespace datanet::dfs::wire
