#include "elasticmap/cost_model.hpp"

#include <cmath>
#include <stdexcept>

namespace datanet::elasticmap {

namespace {
constexpr double kLn2Sq = 0.4804530139182014;  // ln^2(2)

void validate(const CostModelParams& p) {
  if (p.alpha < 0.0 || p.alpha > 1.0) throw std::invalid_argument("alpha in [0,1]");
  if (!(p.bloom_fpp > 0.0) || p.bloom_fpp >= 1.0) {
    throw std::invalid_argument("bloom_fpp in (0,1)");
  }
  if (!(p.hashmap_record_bits > 0.0)) throw std::invalid_argument("k > 0");
  if (!(p.hashmap_load_factor > 0.0) || p.hashmap_load_factor > 1.0) {
    throw std::invalid_argument("load factor in (0,1]");
  }
}
}  // namespace

double elasticmap_cost_bits(std::uint64_t num_subdatasets,
                            const CostModelParams& p) {
  validate(p);
  const double m = static_cast<double>(num_subdatasets);
  const double bloom_bits = m * (1.0 - p.alpha) * (-std::log(p.bloom_fpp) / kLn2Sq);
  const double map_bits = m * p.alpha * p.hashmap_record_bits / p.hashmap_load_factor;
  return bloom_bits + map_bits;
}

std::uint64_t elasticmap_cost_bytes(std::uint64_t num_subdatasets,
                                    const CostModelParams& p) {
  return static_cast<std::uint64_t>(
      std::ceil(elasticmap_cost_bits(num_subdatasets, p) / 8.0));
}

}  // namespace datanet::elasticmap
