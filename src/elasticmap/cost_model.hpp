#pragma once
// Equation 5 of the paper: expected ElasticMap memory for one block that
// contains m sub-datasets, of which a fraction alpha goes to the hash map
// (k-bit records at load factor delta) and the rest to a Bloom filter with
// false-positive rate eps:
//
//   Cost(bits) = m * (1 - alpha) * (-ln(eps) / ln^2(2)) + m * alpha * k / delta

#include <cstdint>

namespace datanet::elasticmap {

struct CostModelParams {
  double alpha = 0.3;          // fraction of sub-datasets kept exactly
  double bloom_fpp = 0.01;     // eps
  double hashmap_record_bits = 96.0;  // k: id (64) + size (32) is typical
  double hashmap_load_factor = 0.7;   // delta
};

// Expected meta-data bits for a block holding `num_subdatasets` sub-datasets.
[[nodiscard]] double elasticmap_cost_bits(std::uint64_t num_subdatasets,
                                          const CostModelParams& p);

// Same in bytes (rounded up).
[[nodiscard]] std::uint64_t elasticmap_cost_bytes(std::uint64_t num_subdatasets,
                                                  const CostModelParams& p);

}  // namespace datanet::elasticmap
