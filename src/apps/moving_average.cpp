#include "apps/moving_average.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "common/string_util.hpp"

namespace datanet::apps {

namespace {

// Extract the numeric rating from a payload of the form "rating=N ...".
// Returns -1 when absent.
int parse_rating(std::string_view payload) {
  constexpr std::string_view kPrefix = "rating=";
  if (payload.substr(0, kPrefix.size()) != kPrefix) return -1;
  int value = 0;
  std::size_t i = kPrefix.size();
  bool any = false;
  while (i < payload.size() && payload[i] >= '0' && payload[i] <= '9') {
    value = value * 10 + (payload[i] - '0');
    ++i;
    any = true;
  }
  return any ? value : -1;
}

class MovingAverageMapper final : public mapred::Mapper {
 public:
  explicit MovingAverageMapper(std::uint64_t window_seconds)
      : window_(window_seconds) {}

  void map(const workload::RecordView& record, mapred::Emitter& out) override {
    const int rating = parse_rating(record.payload);
    if (rating < 0) return;
    const std::uint64_t w = record.timestamp / window_;
    auto& agg = partial_[w];
    agg.first += static_cast<std::uint64_t>(rating);
    agg.second += 1;
    (void)out;
  }

  void finish(mapred::Emitter& out) override {
    for (const auto& [w, agg] : partial_) {
      char key[24];
      std::snprintf(key, sizeof(key), "%012llu",
                    static_cast<unsigned long long>(w));
      out.emit(key, std::to_string(agg.first) + "," + std::to_string(agg.second));
    }
    partial_.clear();
  }

 private:
  std::uint64_t window_;
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      partial_;
};

class AverageReducer final : public mapred::Reducer {
 public:
  void reduce(std::string_view key, std::span<const std::string_view> values,
              mapred::Emitter& out) override {
    std::uint64_t sum = 0, count = 0;
    for (const auto& v : values) {
      const auto comma = v.find(',');
      if (comma == std::string_view::npos) continue;
      sum += common::parse_u64(v.substr(0, comma)).value_or(0);
      count += common::parse_u64(v.substr(comma + 1)).value_or(0);
    }
    if (count == 0) return;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f",
                  static_cast<double>(sum) / static_cast<double>(count));
    out.emit(key, buf);
  }
};

}  // namespace

mapred::Job make_moving_average_job(std::uint64_t window_seconds) {
  if (window_seconds == 0) throw std::invalid_argument("window_seconds == 0");
  mapred::Job job;
  job.config.name = "MovingAverage";
  job.config.cost.io_s_per_mib = 0.02;
  job.config.cost.cpu_s_per_mib = 0.01;  // iterate-only workload
  job.config.cost.cpu_us_per_record = 0.1;
  job.config.cost.task_overhead_s = 4.0;  // fixed startup dominates (Fig. 6b)
  job.mapper_factory = [window_seconds] {
    return std::make_unique<MovingAverageMapper>(window_seconds);
  };
  job.reducer_factory = [] { return std::make_unique<AverageReducer>(); };
  return job;
}

}  // namespace datanet::apps
