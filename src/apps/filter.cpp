#include "apps/filter.hpp"

#include <cstdint>
#include <memory>

#include "mapred/sum_table.hpp"

namespace datanet::apps {

namespace {

class FilterStatsMapper final : public mapred::Mapper {
 public:
  explicit FilterStatsMapper(std::string target) : target_(std::move(target)) {}

  void map(const workload::RecordView& record, mapred::Emitter& out) override {
    (void)out;
    if (!target_.empty() && record.key != target_) {
      ++filtered_out_;
      return;
    }
    ++matched_;
    bytes_.add(record.key, record.encoded_size());
  }

  // Counter totals are flushed once per task, not bumped per record — this
  // mapper runs over the whole raw input on the selection hot path.
  void finish(mapred::Emitter& out) override {
    if (filtered_out_ > 0) out.count("records_filtered_out", filtered_out_);
    if (matched_ > 0) out.count("records_matched", matched_);
    bytes_.emit(out);
  }

 private:
  std::string target_;
  std::uint64_t filtered_out_ = 0;
  std::uint64_t matched_ = 0;
  mapred::SumTable bytes_;  // matched bytes per key
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
  job.reducer_factory = [] { return std::make_unique<mapred::SumReducer>(); };
  return job;
}

}  // namespace datanet::apps
