#include "apps/distinct_users.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "apps/sessionize.hpp"  // extract_field
#include "bloom/hyperloglog.hpp"
#include "common/hash.hpp"

namespace datanet::apps {

namespace {

class DistinctMapper final : public mapred::Mapper {
 public:
  DistinctMapper(std::string field_prefix, std::uint32_t precision)
      : field_prefix_(std::move(field_prefix)), precision_(precision) {}

  void map(const workload::RecordView& record, mapred::Emitter& out) override {
    (void)out;
    const auto entity = extract_field(record.payload, field_prefix_);
    if (entity.empty()) return;
    auto [it, inserted] =
        sketches_.try_emplace(std::string(record.key), precision_);
    it->second.insert(common::hash_bytes(entity));
  }

  void finish(mapred::Emitter& out) override {
    for (const auto& [key, sketch] : sketches_) {
      out.emit(key, sketch.serialize());
    }
    sketches_.clear();
  }

 private:
  std::string field_prefix_;
  std::uint32_t precision_;
  std::unordered_map<std::string, bloom::HyperLogLog> sketches_;
};

class MergeReducer final : public mapred::Reducer {
 public:
  explicit MergeReducer(std::uint32_t precision) : precision_(precision) {}

  void reduce(std::string_view key, std::span<const std::string_view> values,
              mapred::Emitter& out) override {
    bloom::HyperLogLog merged(precision_);
    for (const auto& v : values) {
      merged.merge(bloom::HyperLogLog::deserialize(v));
    }
    out.emit(key, std::to_string(
                      static_cast<std::uint64_t>(std::llround(merged.estimate()))));
  }

 private:
  std::uint32_t precision_;
};

}  // namespace

mapred::Job make_distinct_users_job(std::string field_prefix,
                                    std::uint32_t precision) {
  if (field_prefix.empty()) throw std::invalid_argument("empty field prefix");
  mapred::Job job;
  job.config.name = "DistinctUsers";
  job.config.num_reducers = 8;
  job.config.cost.io_s_per_mib = 0.02;
  job.config.cost.cpu_s_per_mib = 0.25;  // hash + sketch update per record
  job.config.cost.cpu_us_per_record = 1.2;
  job.config.cost.task_overhead_s = 1.0;
  job.mapper_factory = [field_prefix, precision] {
    return std::make_unique<DistinctMapper>(field_prefix, precision);
  };
  job.reducer_factory = [precision] {
    return std::make_unique<MergeReducer>(precision);
  };
  return job;
}

}  // namespace datanet::apps
