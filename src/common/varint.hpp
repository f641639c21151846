#pragma once
// LEB128 variable-length integers for the compact BlockMeta encoding.
// Sub-dataset byte sizes are small (KB-scale), so varints cut the hash-map
// part of a serialized BlockMeta roughly in half versus fixed u64s.

#include <cstdint>
#include <string>

namespace datanet::common {

// Append the LEB128 encoding of v to out (1..10 bytes).
void put_varint(std::string& out, std::uint64_t v);

// Number of bytes put_varint would append.
[[nodiscard]] constexpr std::size_t varint_length(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace datanet::common
