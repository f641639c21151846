#pragma once
// Concentration / content-clustering metrics. The paper cites Viles &
// French's content-locality measures ([25]: "topic signatures and collection
// statistics") as the way to quantify how clustered a sub-dataset is; these
// are the standard instantiations: Gini coefficient, normalized Shannon
// entropy, and top-fraction concentration ratios over a per-block
// distribution. Used by bench_fig1, the CLI inspect command, and tests to
// characterize generated workloads.

#include <cstdint>
#include <span>

namespace datanet::stats {

// Gini coefficient of a non-negative distribution: 0 = perfectly even,
// -> 1 = fully concentrated in one element. Empty or all-zero input -> 0.
[[nodiscard]] double gini(std::span<const double> xs);
[[nodiscard]] double gini(std::span<const std::uint64_t> xs);

// Shannon entropy of the normalized distribution divided by log2(n):
// 1 = uniform, -> 0 = concentrated. n <= 1 -> 0.
[[nodiscard]] double normalized_entropy(std::span<const double> xs);

// Fraction of the total mass held by the largest ceil(top_fraction * n)
// elements (e.g. 0.25 -> "share held by the top quarter of blocks").
[[nodiscard]] double concentration_ratio(std::span<const std::uint64_t> xs,
                                         double top_fraction);

}  // namespace datanet::stats
