#include "stats/zipf.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace datanet::stats {

ZipfSampler::ZipfSampler(std::uint64_t num_items, double exponent)
    : exponent_(exponent) {
  if (num_items == 0) throw std::invalid_argument("ZipfSampler: num_items == 0");
  if (exponent < 0.0) throw std::invalid_argument("ZipfSampler: exponent < 0");
  cdf_.resize(num_items);
  double acc = 0.0;
  for (std::uint64_t r = 0; r < num_items; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = acc;
  }
  for (auto& v : cdf_) v /= acc;
  cdf_.back() = 1.0;  // guard against fp rounding at the top
  guide_.resize(num_items);
  std::uint64_t i = 0;
  for (std::uint64_t j = 0; j < num_items; ++j) {
    const double threshold =
        static_cast<double>(j) / static_cast<double>(num_items);
    while (cdf_[i] < threshold) ++i;
    guide_[j] = i;
  }
}

std::uint64_t ZipfSampler::sample(common::Rng& rng) const {
  return rank_of(rng.uniform());
}

std::uint64_t ZipfSampler::rank_of(double u) const noexcept {
  const std::uint64_t n = cdf_.size();
  // u * n can round up to n for u just below 1, hence the clamp. The guide
  // entry is only a starting point: the two walks below settle on the exact
  // lower_bound rank whatever rounding did to u * n or to j / N.
  std::uint64_t i =
      guide_[std::min(n - 1, static_cast<std::uint64_t>(u * static_cast<double>(n)))];
  while (i > 0 && cdf_[i - 1] >= u) --i;
  while (cdf_[i] < u) ++i;
  return i;
}

double ZipfSampler::probability(std::uint64_t rank) const {
  if (rank >= cdf_.size()) throw std::out_of_range("ZipfSampler::probability");
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

}  // namespace datanet::stats
