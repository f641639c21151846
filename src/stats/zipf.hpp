#pragma once
// Zipf(s, N) sampler for skewed popularity (movie popularity, event types).
// Inverts a precomputed CDF through a guide table (Chen & Asau): O(N) setup,
// O(1) expected steps per draw, exact distribution (no rejection
// approximation error). Every draw returns the rank std::lower_bound would.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace datanet::stats {

class ZipfSampler {
 public:
  // Ranks are 0-based: rank 0 has probability proportional to 1/1^s.
  ZipfSampler(std::uint64_t num_items, double exponent);

  [[nodiscard]] std::uint64_t sample(common::Rng& rng) const;

  // The rank sample() returns for the uniform draw u in [0, 1]: the first
  // rank whose CDF is >= u.
  [[nodiscard]] std::uint64_t rank_of(double u) const noexcept;

  // P(rank) and the CDF, for diagnostics/tests.
  [[nodiscard]] double probability(std::uint64_t rank) const;
  [[nodiscard]] const std::vector<double>& cdf() const noexcept { return cdf_; }

  [[nodiscard]] std::uint64_t num_items() const noexcept {
    return static_cast<std::uint64_t>(cdf_.size());
  }
  [[nodiscard]] double exponent() const noexcept { return exponent_; }

 private:
  std::vector<double> cdf_;
  // guide_[j] is the first rank whose CDF is >= j / N: where rank_of starts
  // for a u in [j / N, (j + 1) / N).
  std::vector<std::uint64_t> guide_;
  double exponent_;
};

}  // namespace datanet::stats
