#include "mapred/job.hpp"

namespace datanet::mapred {

namespace {
constexpr double kMiB = 1024.0 * 1024.0;
}

double CostModel::map_seconds(std::uint64_t bytes, std::uint64_t records) const {
  // time_scale maps scaled-down data volumes to full-size costs; the fixed
  // task startup charge is a real per-task constant and is NOT scaled.
  const double mib = static_cast<double>(bytes) / kMiB;
  return task_overhead_s +
         time_scale * (io_s_per_mib * mib + cpu_s_per_mib * mib +
                       cpu_us_per_record * static_cast<double>(records) * 1e-6);
}

// Shuffle/reduce operate on per-task aggregates the mappers fold (word
// counts, top-K heaps, window partials), whose size is bounded by key
// cardinality rather than input volume — so they are charged on actual
// bytes, NOT multiplied by time_scale (a full-size block folds down to
// roughly the same output).
double CostModel::transfer_seconds(std::uint64_t bytes) const {
  return net_s_per_mib * static_cast<double>(bytes) / kMiB;
}

double CostModel::reduce_seconds(std::uint64_t bytes) const {
  return reduce_s_per_mib * static_cast<double>(bytes) / kMiB;
}

}  // namespace datanet::mapred
