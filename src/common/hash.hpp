#pragma once
// 64-bit hashing primitives used across DataNet: sub-dataset ids, Bloom filter
// probes, shuffle partitioning and word tables. All hashes are deterministic
// across runs and platforms (no libstdc++ std::hash, whose value is
// unspecified).

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace datanet::common {

// Finalizer from MurmurHash3 / splitmix64: bijective 64-bit avalanche mix.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// FNV-1a over bytes, then avalanche-mixed. Good enough distribution for hash
// tables, Bloom filters and partitioners without external dependencies.
[[nodiscard]] constexpr std::uint64_t hash_bytes(std::string_view bytes,
                                                 std::uint64_t seed = 0) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ mix64(seed);
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

// Combine two hashes (boost::hash_combine style, 64-bit constant).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t a,
                                                   std::uint64_t b) noexcept {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

// Kirsch–Mitzenmacher double hashing: derive the i-th probe from two base
// hashes. Used by the Bloom filter so each key is hashed only once.
[[nodiscard]] constexpr std::uint64_t double_hash(std::uint64_t h1, std::uint64_t h2,
                                                  std::uint64_t i) noexcept {
  return h1 + i * h2 + (i * i * i - i) / 6;  // enhanced double hashing
}

namespace detail {
// Slicing-by-8 tables: entries[0] is the classic byte-wise table, and
// entries[k][i] is the CRC of byte i followed by k zero bytes, so eight
// lookups advance the CRC over eight input bytes at once.
struct Crc32Tables {
  std::uint32_t entries[8][256];
};

constexpr Crc32Tables make_crc32_tables() noexcept {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
    }
    t.entries[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      const std::uint32_t prev = t.entries[k - 1][i];
      t.entries[k][i] = (prev >> 8) ^ t.entries[0][prev & 0xffu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

// Four bytes starting at p as a little-endian word, whatever the host order.
[[nodiscard]] constexpr std::uint32_t load_le32(const char* p) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

[[nodiscard]] constexpr std::uint64_t load_le64(const char* p) noexcept {
  return load_le32(p) | static_cast<std::uint64_t>(load_le32(p + 4)) << 32;
}

// The 128-bit product of a and b with its halves xor-folded: every input
// bit reaches the top bits of the result.
[[nodiscard]] constexpr std::uint64_t fold_mul(std::uint64_t a,
                                               std::uint64_t b) noexcept {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
}

inline constexpr std::uint64_t kWordSeed = 0x243f6a8885a308d3ULL;
inline constexpr std::uint64_t kWordBlockKey = 0x13198a2e03707344ULL;
inline constexpr std::uint64_t kWordFinishKey = 0xa4093822299f31d1ULL;
}  // namespace detail

// word_hash in three steps, so a vector kernel that already holds a word's
// zero-padded 16-byte blocks in registers computes the same value: start
// from the length, fold in each block (lo = bytes 0..7 and hi = bytes 8..15
// as little-endian words), finish.
[[nodiscard]] constexpr std::uint64_t word_hash_start(std::size_t len) noexcept {
  return detail::kWordSeed ^ len;
}
[[nodiscard]] constexpr std::uint64_t word_hash_block(std::uint64_t h,
                                                      std::uint64_t lo,
                                                      std::uint64_t hi) noexcept {
  return detail::fold_mul(lo ^ h, hi ^ detail::kWordBlockKey);
}
[[nodiscard]] constexpr std::uint64_t word_hash_finish(std::uint64_t h) noexcept {
  return detail::fold_mul(h, detail::kWordFinishKey);
}

// The hash of a word-keyed table (mapred::SumTable): the bytes as 16-byte
// blocks, the last one zero-padded, one multiply per block. It mixes into
// the top bits, which pick a KeyIndex slot. common::scan_words hands it out
// with every word it finds, computed on the lowered bytes.
[[nodiscard]] constexpr std::uint64_t word_hash(std::string_view bytes) noexcept {
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t h = word_hash_start(n);
  for (; n >= 16; p += 16, n -= 16) {
    h = word_hash_block(h, detail::load_le64(p), detail::load_le64(p + 8));
  }
  if (n > 0) {
    char block[16] = {};
    for (std::size_t i = 0; i < n; ++i) block[i] = p[i];
    h = word_hash_block(h, detail::load_le64(block),
                        detail::load_le64(block + 8));
  }
  return word_hash_finish(h);
}

// CRC-32 (IEEE 802.3, reflected 0xEDB88320), slicing-by-8 with a byte-wise
// tail. Used for block checksums in MiniDfs; matches zlib's crc32 so stored
// sums stay comparable to external tooling. Chainable: pass the previous crc
// to continue, so crc32(b, crc32(a)) == crc32(a + b).
[[nodiscard]] constexpr std::uint32_t crc32(std::string_view bytes,
                                            std::uint32_t crc = 0) noexcept {
  const auto& t = detail::kCrc32Tables.entries;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = detail::load_le32(p) ^ crc;
    const std::uint32_t hi = detail::load_le32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xffu];
  }
  return ~crc;
}

}  // namespace datanet::common
