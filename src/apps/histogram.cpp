#include "apps/histogram.hpp"

#include <charconv>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/string_util.hpp"

namespace datanet::apps {

namespace {

class HistogramMapper final : public mapred::Mapper {
 public:
  void map(const workload::RecordView& record, mapred::Emitter& out) override {
    (void)out;
    words_.clear();
    common::tokenize_words(record.payload, words_, lowered_);
    for (const std::string_view w : words_) {
      ++length_counts_[w.size()];
      ++total_;
    }
  }

  void finish(mapred::Emitter& out) override {
    for (const auto& [len, count] : length_counts_) {
      char key[24];
      std::snprintf(key, sizeof(key), "len_%03zu", len);
      out.emit(key, std::to_string(count));
    }
    out.emit("total_words", std::to_string(total_));
    length_counts_.clear();
    total_ = 0;
  }

 private:
  std::vector<std::string_view> words_;
  std::string lowered_;
  std::unordered_map<std::size_t, std::uint64_t> length_counts_;
  std::uint64_t total_ = 0;
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

mapred::Job make_word_histogram_job() {
  mapred::Job job;
  job.config.name = "AggregateWordHistogram";
  job.config.cost.io_s_per_mib = 0.02;
  job.config.cost.cpu_s_per_mib = 0.33;  // tokenize + aggregate
  job.config.cost.cpu_us_per_record = 1.2;
  job.config.cost.task_overhead_s = 1.0;
  job.mapper_factory = [] { return std::make_unique<HistogramMapper>(); };
  job.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  job.combiner_factory = [] { return std::make_unique<SumReducer>(); };
  return job;
}

}  // namespace datanet::apps
