#include "apps/word_count.hpp"

#include <charconv>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.hpp"

namespace datanet::apps {

namespace {

class WordCountMapper final : public mapred::Mapper {
 public:
  void map(const workload::RecordView& record, mapred::Emitter& out) override {
    words_.clear();
    common::tokenize_words(record.payload, words_, lowered_);
    for (const std::string_view w : words_) out.emit(w, "1");
  }

 private:
  std::vector<std::string_view> words_;
  std::string lowered_;
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

mapred::Job make_word_count_job() {
  mapred::Job job;
  job.config.name = "WordCount";
  job.config.cost.io_s_per_mib = 0.02;
  job.config.cost.cpu_s_per_mib = 0.30;  // tokenization + combining
  job.config.cost.cpu_us_per_record = 1.0;
  job.config.cost.task_overhead_s = 1.0;
  job.mapper_factory = [] { return std::make_unique<WordCountMapper>(); };
  job.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  job.combiner_factory = [] { return std::make_unique<SumReducer>(); };
  return job;
}

}  // namespace datanet::apps
