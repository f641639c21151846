#include "bloom/bloom_filter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/hash.hpp"

namespace datanet::bloom {

namespace {
constexpr double kLn2 = 0.6931471805599453;
constexpr std::uint32_t kSerialMagic = 0x424c4f4du;  // "BLOM"
constexpr std::uint32_t kSerialVersion = 1;

std::uint64_t round_up_words(std::uint64_t bits) { return (bits + 63) / 64; }
}  // namespace

double BloomFilter::bits_per_key(double target_fpp) {
  target_fpp = std::clamp(target_fpp, 1e-9, 0.5);
  return -std::log(target_fpp) / (kLn2 * kLn2);
}

BloomFilter::BloomFilter(std::uint64_t expected_keys, double target_fpp) {
  target_fpp = std::clamp(target_fpp, 1e-9, 0.5);
  expected_keys = std::max<std::uint64_t>(expected_keys, 1);
  const double bits =
      std::ceil(static_cast<double>(expected_keys) * bits_per_key(target_fpp));
  words_.assign(round_up_words(static_cast<std::uint64_t>(bits)), 0);
  const double k = (bits / static_cast<double>(expected_keys)) * kLn2;
  num_hashes_ = std::clamp<std::uint32_t>(static_cast<std::uint32_t>(std::lround(k)),
                                          1, 30);
}

void BloomFilter::insert(std::uint64_t key) {
  const std::uint64_t h1 = common::mix64(key);
  const std::uint64_t h2 = common::mix64(key ^ 0x5851f42d4c957f2dULL) | 1;
  const std::uint64_t m = num_bits();
  for (std::uint32_t i = 0; i < num_hashes_; ++i) {
    const std::uint64_t bit = common::double_hash(h1, h2, i) % m;
    words_[bit >> 6] |= (1ULL << (bit & 63));
  }
  ++inserts_;
}

bool BloomFilter::maybe_contains(std::uint64_t key) const {
  const std::uint64_t h1 = common::mix64(key);
  const std::uint64_t h2 = common::mix64(key ^ 0x5851f42d4c957f2dULL) | 1;
  const std::uint64_t m = num_bits();
  for (std::uint32_t i = 0; i < num_hashes_; ++i) {
    const std::uint64_t bit = common::double_hash(h1, h2, i) % m;
    if (!(words_[bit >> 6] & (1ULL << (bit & 63)))) return false;
  }
  return true;
}

void BloomFilter::merge(const BloomFilter& other) {
  if (other.words_.size() != words_.size() || other.num_hashes_ != num_hashes_) {
    throw std::invalid_argument("BloomFilter::merge: geometry mismatch");
  }
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  inserts_ += other.inserts_;
}

std::string BloomFilter::serialize() const {
  std::string out;
  out.reserve(32 + words_.size() * 8);
  auto put_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  };
  auto put_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  };
  put_u32(kSerialMagic);
  put_u32(kSerialVersion);
  put_u32(num_hashes_);
  put_u32(0);  // reserved
  put_u64(inserts_);
  put_u64(static_cast<std::uint64_t>(words_.size()));
  for (std::uint64_t w : words_) put_u64(w);
  return out;
}

}  // namespace datanet::bloom
