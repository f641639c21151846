#include "apps/word_count.hpp"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.hpp"
#include "mapred/sum_table.hpp"

namespace datanet::apps {

namespace {

// Counts the task's words in a SumTable and emits each distinct word once.
class WordCountMapper final : public mapred::Mapper {
 public:
  void map(const workload::RecordView& record, mapred::Emitter& out) override {
    (void)out;
    words_.clear();
    common::tokenize_words(record.payload, words_, lowered_);
    for (const std::string_view w : words_) counts_.add(w, 1);
  }

  void finish(mapred::Emitter& out) override { counts_.emit(out); }

 private:
  std::vector<std::string_view> words_;
  std::string lowered_;
  mapred::SumTable counts_;
};

}  // namespace

mapred::Job make_word_count_job() {
  mapred::Job job;
  job.config.name = "WordCount";
  job.config.cost.io_s_per_mib = 0.02;
  job.config.cost.cpu_s_per_mib = 0.30;  // tokenization + counting
  job.config.cost.cpu_us_per_record = 1.0;
  job.config.cost.task_overhead_s = 1.0;
  job.mapper_factory = [] { return std::make_unique<WordCountMapper>(); };
  job.reducer_factory = [] { return std::make_unique<mapred::SumReducer>(); };
  return job;
}

}  // namespace datanet::apps
