// Micro-benchmark for the post-map pipeline: shuffle + group + reduce wall
// time vs. execution thread count. The engine computes
// all partition hashes inside the map tasks and runs the per-partition
// group+reduce stage on the thread pool, so this stage should scale with
// threads while producing bit-identical reports at every thread count.
//
// Timing uses JobReport::wall_shuffle_reduce_seconds (manual time), so the
// map stage is excluded from the measurement. BM_WordCountRun times the
// whole run of apps::make_word_count_job() over a word workload (many words
// per record, few distinct words), where the mapper's per-task folding
// dominates; its bytes_per_second is input bytes over that wall time, the
// single-thread WordCount MB/s at Arg(1). BM_HistogramRun times
// apps::make_word_histogram_job() on the same workload.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "apps/histogram.hpp"
#include "apps/word_count.hpp"
#include "common/rng.hpp"
#include "mapred/engine.hpp"

namespace {

using namespace datanet;

class KeyCountMapper final : public mapred::Mapper {
 public:
  void map(const workload::RecordView& r, mapred::Emitter& out) override {
    out.emit(r.key, "1");
  }
};

class SumReducer final : public mapred::Reducer {
 public:
  void reduce(std::string_view key, std::span<const std::string_view> values,
              mapred::Emitter& out) override {
    std::uint64_t sum = 0;
    for (const auto& v : values) sum += static_cast<std::uint64_t>(v.size());
    out.emit(key, std::to_string(sum));
  }
};

// A shuffle-heavy workload: many splits, many distinct long-prefix keys
// (grouping must compare keys; the cached hash spares most compares), and a
// mapper that does not fold, so every map output pair crosses the shuffle.
struct Workload {
  std::vector<std::string> blocks;
  std::vector<mapred::InputSplit> splits;
};

const Workload& workload_16x() {
  static const Workload w = [] {
    Workload out;
    common::Rng rng(7);
    const int num_splits = 16;
    const int records_per_split = 40000;
    const int num_keys = 20000;
    out.blocks.reserve(num_splits);
    for (int s = 0; s < num_splits; ++s) {
      std::string data;
      data.reserve(records_per_split * 48);
      for (int i = 0; i < records_per_split; ++i) {
        char key[40];
        std::snprintf(key, sizeof key, "subdataset_key_%05llu",
                      static_cast<unsigned long long>(rng.bounded(num_keys)));
        data += std::to_string(i) + "\t" + key + "\tpayload text\n";
      }
      out.blocks.push_back(std::move(data));
    }
    for (int s = 0; s < num_splits; ++s) {
      out.splits.push_back({.node = static_cast<std::uint32_t>(s % 4),
                            .data = out.blocks[s],
                            .charged_bytes = 0});
    }
    return out;
  }();
  return w;
}

mapred::Job reduce_job(std::uint32_t num_reducers) {
  mapred::Job job;
  job.config.name = "MicroReduce";
  job.config.num_reducers = num_reducers;
  job.mapper_factory = [] { return std::make_unique<KeyCountMapper>(); };
  job.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  return job;
}

// arg0 = execution threads, arg1 = reducers. Manual time = shuffle+reduce
// wall seconds only (map stage excluded).
void BM_ShuffleReduce(benchmark::State& state) {
  const auto& w = workload_16x();
  const auto job = reduce_job(static_cast<std::uint32_t>(state.range(1)));
  mapred::Engine engine(
      {.num_nodes = 4,
       .slots_per_node = 2,
       .execution_threads = static_cast<std::uint32_t>(state.range(0))});
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    const auto report = engine.run(job, w.splits);
    pairs = report.map_output_pairs;
    benchmark::DoNotOptimize(report.output);
    state.SetIterationTime(report.wall_shuffle_reduce_seconds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pairs));
}
BENCHMARK(BM_ShuffleReduce)
    ->UseManualTime()
    ->ArgsProduct({{1, 2, 8}, {16}})
    ->Unit(benchmark::kMillisecond);

// Full-run wall time at the same thread counts (map included) — the
// end-to-end view of the same scaling.
void BM_EngineRun(benchmark::State& state) {
  const auto& w = workload_16x();
  const auto job = reduce_job(16);
  mapred::Engine engine(
      {.num_nodes = 4,
       .slots_per_node = 2,
       .execution_threads = static_cast<std::uint32_t>(state.range(0))});
  for (auto _ : state) {
    const auto report = engine.run(job, w.splits);
    benchmark::DoNotOptimize(report.output);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(16 * 40000));
}
BENCHMARK(BM_EngineRun)->Arg(1)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

// 16 splits x 2500 records x 20 words over a 2000-word vocabulary: ~800k
// words that each mapper folds to at most 2000 pairs per split.
constexpr int kWordSplits = 16;
constexpr int kWordRecords = 2500;
constexpr int kWordsPerRecord = 20;

const Workload& word_workload() {
  static const Workload w = [] {
    Workload out;
    common::Rng rng(11);
    for (int s = 0; s < kWordSplits; ++s) {
      std::string data;
      for (int i = 0; i < kWordRecords; ++i) {
        data += std::to_string(i) + "\tmovie\t";
        for (int k = 0; k < kWordsPerRecord; ++k) {
          if (k) data += ' ';
          data += "word" + std::to_string(rng.bounded(2000));
        }
        data += '\n';
      }
      out.blocks.push_back(std::move(data));
    }
    for (int s = 0; s < kWordSplits; ++s) {
      out.splits.push_back({.node = static_cast<std::uint32_t>(s % 4),
                            .data = out.blocks[s],
                            .charged_bytes = 0});
    }
    return out;
  }();
  return w;
}

// Full-run wall time of `job` over the word workload, arg0 = execution
// threads.
void run_word_job(benchmark::State& state, const mapred::Job& job) {
  const auto& w = word_workload();
  mapred::Engine engine(
      {.num_nodes = 4,
       .slots_per_node = 2,
       .execution_threads = static_cast<std::uint32_t>(state.range(0))});
  for (auto _ : state) {
    const auto report = engine.run(job, w.splits);
    benchmark::DoNotOptimize(report.output);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kWordSplits * kWordRecords * kWordsPerRecord);
  std::int64_t input_bytes = 0;
  for (const auto& block : w.blocks) {
    input_bytes += static_cast<std::int64_t>(block.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          input_bytes);
}

// WordCount: tokenizing and folding in the mapper is most of it.
void BM_WordCountRun(benchmark::State& state) {
  run_word_job(state, apps::make_word_count_job());
}
// Wall time, so the rates at Arg(4) are not over the main thread's CPU time.
BENCHMARK(BM_WordCountRun)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The word-length histogram: the same tokenizer, counts by word length.
void BM_HistogramRun(benchmark::State& state) {
  run_word_job(state, apps::make_word_histogram_job());
}
BENCHMARK(BM_HistogramRun)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
