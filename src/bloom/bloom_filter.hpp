#pragma once
// Space-efficient membership filter used by ElasticMap for non-dominant
// sub-datasets (Section III-A). Bloom, CACM 1970. Optimal sizing:
//   bits/key = -ln(eps) / ln^2(2),   k = (m/n) ln 2.
// Probes use Kirsch–Mitzenmacher double hashing so each key is hashed once.

#include <cstdint>
#include <string>
#include <vector>

namespace datanet::bloom {

class BloomFilter {
 public:
  // Filter sized for `expected_keys` insertions at false-positive rate
  // `target_fpp` (clamped to [1e-9, 0.5]).
  BloomFilter(std::uint64_t expected_keys, double target_fpp);

  // Explicit geometry (bits rounded up to a word multiple).
  static BloomFilter with_geometry(std::uint64_t num_bits, std::uint32_t num_hashes);

  void insert(std::uint64_t key);
  [[nodiscard]] bool maybe_contains(std::uint64_t key) const;

  // In-place union; geometries must match exactly.
  void merge(const BloomFilter& other);

  [[nodiscard]] std::uint64_t num_bits() const noexcept {
    return static_cast<std::uint64_t>(words_.size()) * 64;
  }
  [[nodiscard]] std::uint32_t num_hashes() const noexcept { return num_hashes_; }
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return words_.size() * sizeof(std::uint64_t);
  }
  [[nodiscard]] std::uint64_t insert_count() const noexcept { return inserts_; }

  // Fraction of set bits; feeds the estimated-fpp diagnostics.
  [[nodiscard]] double fill_ratio() const;

  // fpp estimate from the actual fill ratio: (set_fraction)^k.
  [[nodiscard]] double estimated_fpp() const;

  // Cardinality estimate from fill ratio: -m/k * ln(1 - X/m).
  [[nodiscard]] double estimated_cardinality() const;

  // Compact little-endian encoding: a 32-byte versioned header, then the
  // bitmap. BlockMeta::serialize embeds it.
  [[nodiscard]] std::string serialize() const;

  // Theoretical bits/key for a target fpp (Eq. 5's bloom term).
  [[nodiscard]] static double bits_per_key(double target_fpp);

 private:
  BloomFilter() = default;

  std::vector<std::uint64_t> words_;
  std::uint32_t num_hashes_ = 1;
  std::uint64_t inserts_ = 0;
};

}  // namespace datanet::bloom
