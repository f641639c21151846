#include "apps/filter.hpp"

#include <charconv>
#include <cstdint>
#include <memory>

namespace datanet::apps {

namespace {

class FilterStatsMapper final : public mapred::Mapper {
 public:
  explicit FilterStatsMapper(std::string target) : target_(std::move(target)) {}

  void map(const workload::RecordView& record, mapred::Emitter& out) override {
    if (!target_.empty() && record.key != target_) {
      ++filtered_out_;
      return;
    }
    ++matched_;
    out.emit(record.key, std::to_string(record.encoded_size()));
  }

  // Counter totals are flushed once per task, not bumped per record — this
  // mapper runs over the whole raw input on the selection hot path.
  void finish(mapred::Emitter& out) override {
    if (filtered_out_ > 0) out.count("records_filtered_out", filtered_out_);
    if (matched_ > 0) out.count("records_matched", matched_);
  }

 private:
  std::string target_;
  std::uint64_t filtered_out_ = 0;
  std::uint64_t matched_ = 0;
};

class SumReducer final : public mapred::Reducer {
 public:
  void reduce(std::string_view key, std::span<const std::string_view> values,
              mapred::Emitter& out) override {
    std::uint64_t sum = 0;
    for (const auto& v : values) {
      std::uint64_t x = 0;
      std::from_chars(v.data(), v.data() + v.size(), x);
      sum += x;
    }
    out.emit(key, std::to_string(sum));
  }
};

}  // namespace

mapred::Job make_filter_stats_job(std::string target_key) {
  mapred::Job job;
  job.config.name = "FilterStats";
  job.config.cost.io_s_per_mib = 0.02;
  job.config.cost.cpu_s_per_mib = 0.005;  // pure scan
  job.config.cost.cpu_us_per_record = 0.2;
  job.config.cost.task_overhead_s = 0.5;
  job.mapper_factory = [target_key] {
    return std::make_unique<FilterStatsMapper>(target_key);
  };
  job.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  job.combiner_factory = [] { return std::make_unique<SumReducer>(); };
  return job;
}

}  // namespace datanet::apps
