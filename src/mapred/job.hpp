#pragma once
// Job model for the mini-MapReduce engine. Jobs execute for real (mappers
// parse records, reducers aggregate), while a per-job cost model drives the
// deterministic simulated clock used for all timing figures. Mappers are
// created per task so they may keep state (combining, windows, top-K heaps).
//
// Ownership rule: keys and values travel as std::string_view. A view passed
// to Emitter::emit needs to live only through that call, because the engine
// copies what it keeps. Grouping a combiner job's map output, it copies each
// distinct key once per task into the map task's arena and each value once
// into a flat buffer; each pair it partitions for the reducers goes into the
// arena too. The views a Reducer receives live until its reduce() returns;
// a reducer that keeps a key or value past that must copy it.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "workload/record.hpp"

namespace datanet::mapred {

// The owned form of a key and a value: JobReport::output's entries.
using Key = std::string;
using Value = std::string;

class Emitter {
 public:
  // Named counters as a flat (name, total) list: mappers count per record,
  // so the accumulate path must not allocate for an existing name — lookup
  // is a string_view compare against a handful of entries.
  using CounterList = std::vector<std::pair<std::string, std::uint64_t>>;

  virtual ~Emitter() = default;
  // `key` and `value` need to stay valid only until emit returns.
  virtual void emit(std::string_view key, std::string_view value) = 0;

  // Hadoop-style named counters: accumulated per task and merged into the
  // JobReport. Counting is side-channel telemetry — it never affects
  // output. Non-virtual on purpose: this runs once per record, so the bump
  // must cost a predictable branch + short memcmp, not a dispatch. Emitters
  // that sink counters point `counters_` at their list; contexts that drop
  // counts (the default) leave it null.
  void count(std::string_view counter, std::uint64_t delta = 1) {
    if (counters_ == nullptr) return;
    for (auto& [name, total] : *counters_) {
      if (name == counter) {
        total += delta;
        return;
      }
    }
    counters_->emplace_back(std::string(counter), delta);
  }

 protected:
  CounterList* counters_ = nullptr;
};

class Mapper {
 public:
  virtual ~Mapper() = default;
  // Called once per record of the task's input split.
  virtual void map(const workload::RecordView& record, Emitter& out) = 0;
  // Called once after the split is exhausted (emit held state, e.g. top-K).
  virtual void finish(Emitter& out) { (void)out; }
};

class Reducer {
 public:
  virtual ~Reducer() = default;
  // `values` are all values observed for `key` (combiner: within one task;
  // reducer: across all tasks), in deterministic task-then-emit order. The
  // key, the span and the views in it live until reduce returns.
  virtual void reduce(std::string_view key,
                      std::span<const std::string_view> values,
                      Emitter& out) = 0;
};

// Simulated-time cost model. Charged per map task:
//   io_s_per_mib * input_MiB + cpu_s_per_mib * input_MiB
//     + cpu_us_per_record * records * 1e-6
// Shuffle transfer per reducer: net_s_per_mib * partition_MiB. Reduce:
// reduce_s_per_mib * partition_MiB. All scaled by time_scale (experiments
// use it to make one scaled-down block cost what a 64 MiB block costs).
struct CostModel {
  double io_s_per_mib = 0.30;
  double cpu_s_per_mib = 0.10;
  double cpu_us_per_record = 0.0;
  double net_s_per_mib = 0.40;
  double reduce_s_per_mib = 0.20;
  double task_overhead_s = 0.0;  // fixed JVM-style startup charge per task
  double time_scale = 1.0;

  [[nodiscard]] double map_seconds(std::uint64_t bytes,
                                   std::uint64_t records) const;
  [[nodiscard]] double transfer_seconds(std::uint64_t bytes) const;
  [[nodiscard]] double reduce_seconds(std::uint64_t bytes) const;
};

struct JobConfig {
  std::string name = "job";
  std::uint32_t num_reducers = 8;
  CostModel cost;
};

struct Job {
  JobConfig config;
  std::function<std::unique_ptr<Mapper>()> mapper_factory;
  std::function<std::unique_ptr<Reducer>()> reducer_factory;
  // Optional per-task combiner (usually the reducer itself); reduces shuffle
  // volume exactly as in Hadoop.
  std::function<std::unique_ptr<Reducer>()> combiner_factory;
};

}  // namespace datanet::mapred
