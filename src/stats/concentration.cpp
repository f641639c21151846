#include "stats/concentration.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace datanet::stats {

double gini(std::span<const double> xs) {
  if (xs.size() <= 1) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  for (const double x : sorted) {
    if (x < 0.0) throw std::invalid_argument("gini: negative value");
  }
  std::sort(sorted.begin(), sorted.end());
  const double total = std::accumulate(sorted.begin(), sorted.end(), 0.0);
  if (total <= 0.0) return 0.0;
  // G = (2 * sum_i i*x_(i) / (n * total)) - (n + 1) / n, i starting at 1.
  double weighted = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    weighted += static_cast<double>(i + 1) * sorted[i];
  }
  const double n = static_cast<double>(sorted.size());
  return 2.0 * weighted / (n * total) - (n + 1.0) / n;
}

double gini(std::span<const std::uint64_t> xs) {
  std::vector<double> d(xs.begin(), xs.end());
  return gini(std::span<const double>(d));
}

double normalized_entropy(std::span<const double> xs) {
  if (xs.size() <= 1) return 0.0;
  double total = 0.0;
  for (const double x : xs) {
    if (x < 0.0) throw std::invalid_argument("entropy: negative value");
    total += x;
  }
  if (total <= 0.0) return 0.0;
  double h = 0.0;  // Shannon entropy in bits
  for (const double x : xs) {
    if (x <= 0.0) continue;
    const double p = x / total;
    h -= p * std::log2(p);
  }
  return h / std::log2(static_cast<double>(xs.size()));
}

double concentration_ratio(std::span<const std::uint64_t> xs,
                           double top_fraction) {
  if (top_fraction <= 0.0 || top_fraction > 1.0) {
    throw std::invalid_argument("concentration_ratio: fraction in (0, 1]");
  }
  if (xs.empty()) return 0.0;
  std::vector<std::uint64_t> sorted(xs.begin(), xs.end());
  std::sort(sorted.rbegin(), sorted.rend());
  const auto total =
      std::accumulate(sorted.begin(), sorted.end(), std::uint64_t{0});
  if (total == 0) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::ceil(top_fraction * static_cast<double>(sorted.size())));
  const auto top = std::accumulate(sorted.begin(),
                                   sorted.begin() + static_cast<long>(k),
                                   std::uint64_t{0});
  return static_cast<double>(top) / static_cast<double>(total);
}

}  // namespace datanet::stats
