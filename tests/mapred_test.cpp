// Tests for the mini-MapReduce engine: real execution correctness (output
// equals a serial computation), the deterministic simulated clock, combiner
// semantics, and the paper's shuffle-phase timing model.

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <map>
#include <mutex>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "mapred/engine.hpp"
#include "workload/record.hpp"

namespace dm = datanet::mapred;
namespace dw = datanet::workload;

namespace {

// Toy job: count records per key.
class KeyCountMapper final : public dm::Mapper {
 public:
  void map(const dw::RecordView& r, dm::Emitter& out) override {
    out.emit(std::string(r.key), "1");
  }
};

class SumReducer final : public dm::Reducer {
 public:
  void reduce(std::string_view key, std::span<const std::string_view> values,
              dm::Emitter& out) override {
    std::uint64_t sum = 0;
    for (const auto& v : values) {
      std::uint64_t x = 0;
      std::from_chars(v.data(), v.data() + v.size(), x);
      sum += x;
    }
    out.emit(key, std::to_string(sum));
  }
};

dm::Job key_count_job(bool combiner = true) {
  dm::Job job;
  job.config.name = "KeyCount";
  job.config.num_reducers = 4;
  job.mapper_factory = [] { return std::make_unique<KeyCountMapper>(); };
  job.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  if (combiner) {
    job.combiner_factory = [] { return std::make_unique<SumReducer>(); };
  }
  return job;
}

std::string make_block(std::initializer_list<std::pair<const char*, int>> keys) {
  std::string data;
  std::uint64_t ts = 0;
  for (const auto& [key, count] : keys) {
    for (int i = 0; i < count; ++i) {
      data += std::to_string(ts++) + "\t" + key + "\tpayload text\n";
    }
  }
  return data;
}

}  // namespace

// ---- cost model ----

TEST(CostModel, MapSecondsComposition) {
  dm::CostModel c;
  c.io_s_per_mib = 1.0;
  c.cpu_s_per_mib = 2.0;
  c.cpu_us_per_record = 0.0;
  c.task_overhead_s = 0.5;
  c.time_scale = 1.0;
  EXPECT_DOUBLE_EQ(c.map_seconds(1 << 20, 0), 3.5);
}

TEST(CostModel, TimeScaleMultipliesDataCostsOnly) {
  dm::CostModel c;
  c.io_s_per_mib = 1.0;
  c.cpu_s_per_mib = 0.0;
  c.cpu_us_per_record = 0.0;
  c.task_overhead_s = 0.25;  // fixed startup is NOT scaled
  c.time_scale = 4.0;
  EXPECT_DOUBLE_EQ(c.map_seconds(1 << 20, 0), 4.25);
  // Shuffle/reduce act on combiner output (key-cardinality bound), so they
  // are charged on actual bytes without the scale factor.
  EXPECT_DOUBLE_EQ(c.transfer_seconds(1 << 20), c.net_s_per_mib);
  EXPECT_DOUBLE_EQ(c.reduce_seconds(1 << 20), c.reduce_s_per_mib);
}

TEST(CostModel, PerRecordCharge) {
  dm::CostModel c{};
  c.io_s_per_mib = 0.0;
  c.cpu_s_per_mib = 0.0;
  c.cpu_us_per_record = 2.0;
  c.task_overhead_s = 0.0;
  EXPECT_DOUBLE_EQ(c.map_seconds(0, 1'000'000), 2.0);
}

// ---- engine correctness ----

TEST(Engine, CountsMatchSerialTruth) {
  const auto b1 = make_block({{"a", 10}, {"b", 5}});
  const auto b2 = make_block({{"a", 3}, {"c", 7}});
  dm::Engine engine({.num_nodes = 2});
  const auto report = engine.run(
      key_count_job(), {{.node = 0, .data = b1, .charged_bytes = 0},
                        {.node = 1, .data = b2, .charged_bytes = 0}});
  EXPECT_EQ(report.output.at("a"), "13");
  EXPECT_EQ(report.output.at("b"), "5");
  EXPECT_EQ(report.output.at("c"), "7");
  EXPECT_EQ(report.input_records, 25u);
}

TEST(Engine, CombinerDoesNotChangeOutput) {
  const auto b1 = make_block({{"x", 20}, {"y", 4}});
  const auto b2 = make_block({{"x", 1}, {"z", 9}});
  dm::Engine engine({.num_nodes = 2});
  const std::vector<dm::InputSplit> splits{{.node = 0, .data = b1, .charged_bytes = 0},
                                           {.node = 1, .data = b2, .charged_bytes = 0}};
  const auto with = engine.run(key_count_job(true), splits);
  const auto without = engine.run(key_count_job(false), splits);
  EXPECT_EQ(with.output, without.output);
  // But the combiner shrinks the shuffle.
  EXPECT_LT(with.shuffle_bytes, without.shuffle_bytes);
  EXPECT_LT(with.map_output_pairs, without.map_output_pairs);
}

TEST(Engine, EmptyInputProducesEmptyOutput) {
  dm::Engine engine({.num_nodes = 1});
  const auto report = engine.run(key_count_job(), {});
  EXPECT_TRUE(report.output.empty());
  EXPECT_DOUBLE_EQ(report.total_seconds, 0.0);
}

TEST(Engine, SkippedLinesCounted) {
  const std::string bad = "garbage line\n1\ta\tok\nmore garbage\n";
  dm::Engine engine({.num_nodes = 1});
  const auto report =
      engine.run(key_count_job(), {{.node = 0, .data = bad, .charged_bytes = 0}});
  EXPECT_EQ(report.skipped_lines, 2u);
  EXPECT_EQ(report.input_records, 1u);
}

TEST(Engine, DeterministicOutputAcrossThreadCounts) {
  const auto b1 = make_block({{"a", 50}, {"b", 30}});
  const auto b2 = make_block({{"b", 20}, {"c", 40}});
  const auto b3 = make_block({{"a", 5}, {"c", 5}});
  const std::vector<dm::InputSplit> splits{{.node = 0, .data = b1, .charged_bytes = 0},
                                           {.node = 1, .data = b2, .charged_bytes = 0},
                                           {.node = 2, .data = b3, .charged_bytes = 0}};
  dm::Engine e1({.num_nodes = 3, .slots_per_node = 2, .execution_threads = 1});
  dm::Engine e8({.num_nodes = 3, .slots_per_node = 2, .execution_threads = 8});
  const auto r1 = e1.run(key_count_job(), splits);
  // Back-to-back runs share the process-wide pool; each equals a serial run.
  for (int run = 0; run < 2; ++run) {
    const auto r8 = e8.run(key_count_job(), splits);
    EXPECT_EQ(r1.output, r8.output);
    EXPECT_EQ(r1.counters, r8.counters);
    EXPECT_DOUBLE_EQ(r1.map_phase_seconds, r8.map_phase_seconds);
    EXPECT_DOUBLE_EQ(r1.total_seconds, r8.total_seconds);
  }
}

TEST(Engine, RejectsBadConfigs) {
  EXPECT_THROW((void)dm::Engine({.num_nodes = 0}), std::invalid_argument);
  EXPECT_THROW((void)dm::Engine({.num_nodes = 1, .slots_per_node = 0}),
               std::invalid_argument);
  dm::Engine engine({.num_nodes = 1});
  dm::Job no_mapper = key_count_job();
  no_mapper.mapper_factory = nullptr;
  EXPECT_THROW(engine.run(no_mapper, {}), std::invalid_argument);
  dm::Job zero_reducers = key_count_job();
  zero_reducers.config.num_reducers = 0;
  EXPECT_THROW(engine.run(zero_reducers, {}), std::invalid_argument);
  const auto b = make_block({{"a", 1}});
  EXPECT_THROW(
      engine.run(key_count_job(), {{.node = 5, .data = b, .charged_bytes = 0}}),
      std::invalid_argument);
}

// ---- simulated timing ----

TEST(Timing, NodeMapTimeIsSlotSchedule) {
  // 4 equal tasks on one node with 2 slots -> node time = 2 task durations.
  const auto b = make_block({{"a", 10}});
  dm::Job job = key_count_job();
  job.config.cost = {};
  job.config.cost.io_s_per_mib = 0.0;
  job.config.cost.cpu_s_per_mib = 0.0;
  job.config.cost.cpu_us_per_record = 0.0;
  job.config.cost.task_overhead_s = 1.0;
  dm::Engine engine({.num_nodes = 1, .slots_per_node = 2});
  const std::vector<dm::InputSplit> splits(
      4, {.node = 0, .data = b, .charged_bytes = 0});
  const auto report = engine.run(job, splits);
  EXPECT_DOUBLE_EQ(report.node_map_seconds[0], 2.0);
  EXPECT_DOUBLE_EQ(report.map_phase_seconds, 2.0);
  EXPECT_DOUBLE_EQ(report.first_map_finish_seconds, 1.0);
}

TEST(Timing, MapPhaseIsMaxOverNodes) {
  const auto b = make_block({{"a", 10}});
  dm::Job job = key_count_job();
  job.config.cost = {};
  job.config.cost.task_overhead_s = 1.0;
  job.config.cost.io_s_per_mib = 0.0;
  job.config.cost.cpu_s_per_mib = 0.0;
  job.config.cost.cpu_us_per_record = 0.0;
  dm::Engine engine({.num_nodes = 2, .slots_per_node = 1});
  // Node 0 gets 3 tasks, node 1 gets 1.
  const std::vector<dm::InputSplit> splits{{.node = 0, .data = b, .charged_bytes = 0},
                                           {.node = 0, .data = b, .charged_bytes = 0},
                                           {.node = 0, .data = b, .charged_bytes = 0},
                                           {.node = 1, .data = b, .charged_bytes = 0}};
  const auto report = engine.run(job, splits);
  EXPECT_DOUBLE_EQ(report.node_map_seconds[0], 3.0);
  EXPECT_DOUBLE_EQ(report.node_map_seconds[1], 1.0);
  EXPECT_DOUBLE_EQ(report.map_phase_seconds, 3.0);
}

TEST(Timing, ShuffleStretchesWithImbalance) {
  // Same total work, balanced vs imbalanced placement: the imbalanced run
  // must show a longer shuffle phase (the Fig. 7 mechanism).
  const auto b = make_block({{"k", 40}});
  dm::Job job = key_count_job();
  job.config.cost.task_overhead_s = 1.0;
  dm::Engine engine({.num_nodes = 4, .slots_per_node = 1});

  std::vector<dm::InputSplit> balanced, skewed;
  for (int i = 0; i < 8; ++i) {
    balanced.push_back({.node = static_cast<std::uint32_t>(i % 4),
                        .data = b,
                        .charged_bytes = 0});
    skewed.push_back({.node = 0, .data = b, .charged_bytes = 0});
  }
  const auto rb = engine.run(job, balanced);
  const auto rs = engine.run(job, skewed);
  EXPECT_EQ(rb.output, rs.output);
  EXPECT_GT(rs.shuffle_phase_seconds, 2.0 * rb.shuffle_phase_seconds);
  EXPECT_GT(rs.total_seconds, rb.total_seconds);
}

TEST(Timing, ChargedBytesOverrideData) {
  const auto b = make_block({{"a", 100}});
  dm::Job job = key_count_job();
  job.config.cost = {};
  job.config.cost.io_s_per_mib = 1.0;
  job.config.cost.cpu_s_per_mib = 0.0;
  job.config.cost.cpu_us_per_record = 0.0;
  job.config.cost.task_overhead_s = 0.0;
  dm::Engine engine({.num_nodes = 1, .slots_per_node = 1});
  const auto normal =
      engine.run(job, {{.node = 0, .data = b, .charged_bytes = 0}});
  const auto penalized =
      engine.run(job, {{.node = 0, .data = b, .charged_bytes = 2 * b.size()}});
  EXPECT_NEAR(penalized.map_phase_seconds, 2.0 * normal.map_phase_seconds, 1e-12);
}

TEST(Timing, TaskTimingsConsistent) {
  const auto b = make_block({{"a", 20}});
  dm::Engine engine({.num_nodes = 2, .slots_per_node = 2});
  const std::vector<dm::InputSplit> splits(
      6, {.node = 0, .data = b, .charged_bytes = 0});
  const auto report = engine.run(key_count_job(), splits);
  ASSERT_EQ(report.map_tasks.size(), 6u);
  for (const auto& t : report.map_tasks) {
    EXPECT_GE(t.finish, t.start);
    EXPECT_LE(t.finish, report.map_phase_seconds + 1e-12);
  }
}

TEST(Timing, ReduceAndShuffleSizedByPartitions) {
  const auto b1 = make_block({{"a", 30}});
  dm::Engine engine({.num_nodes = 1});
  dm::Job job = key_count_job();
  job.config.num_reducers = 8;
  const auto report =
      engine.run(job, {{.node = 0, .data = b1, .charged_bytes = 0}});
  EXPECT_EQ(report.shuffle_task_seconds.size(), 8u);
  EXPECT_EQ(report.reduce_task_seconds.size(), 8u);
  // Exactly one key => exactly one nonzero partition.
  int nonzero = 0;
  for (const auto r : report.reduce_task_seconds) nonzero += (r > 0.0);
  EXPECT_EQ(nonzero, 1);
}

// ---- named counters ----

namespace {
class CountingMapper final : public dm::Mapper {
 public:
  void map(const dw::RecordView& r, dm::Emitter& out) override {
    out.count("records_seen");
    if (r.key == "a") out.count("a_records", 2);
    out.emit(std::string(r.key), "1");
  }
};
class CountingReducer final : public dm::Reducer {
 public:
  void reduce(std::string_view key, std::span<const std::string_view> values,
              dm::Emitter& out) override {
    out.count("keys_reduced");
    out.emit(key, std::to_string(values.size()));
  }
};
}  // namespace

TEST(Engine, DeterministicShuffleAndReduceAcrossThreadCounts) {
  // Shuffle-heavy job: many distinct keys across many splits, >= 8 reducers,
  // so the parallel group+reduce stage actually fans out.
  // Everything observable must be bit-identical at 1 and 8 threads.
  std::vector<std::string> blocks;
  for (int s = 0; s < 6; ++s) {
    std::string data;
    for (int i = 0; i < 400; ++i) {
      data += std::to_string(i) + "\tkey_" +
              std::to_string((s * 131 + i * 7) % 97) + "\tpayload\n";
    }
    blocks.push_back(std::move(data));
  }
  std::vector<dm::InputSplit> splits;
  for (int s = 0; s < 6; ++s) {
    splits.push_back({.node = static_cast<std::uint32_t>(s % 3),
                      .data = blocks[s],
                      .charged_bytes = 0});
  }
  dm::Job job;
  job.config.num_reducers = 11;
  job.mapper_factory = [] { return std::make_unique<CountingMapper>(); };
  job.reducer_factory = [] { return std::make_unique<CountingReducer>(); };
  dm::Engine e1({.num_nodes = 3, .slots_per_node = 2, .execution_threads = 1});
  dm::Engine e8({.num_nodes = 3, .slots_per_node = 2, .execution_threads = 8});
  const auto r1 = e1.run(job, splits);
  const auto r8 = e8.run(job, splits);
  EXPECT_EQ(r1.output, r8.output);
  EXPECT_EQ(r1.counters, r8.counters);
  EXPECT_EQ(r1.map_output_pairs, r8.map_output_pairs);
  EXPECT_EQ(r1.shuffle_bytes, r8.shuffle_bytes);
  EXPECT_EQ(r1.input_records, r8.input_records);
  EXPECT_DOUBLE_EQ(r1.total_seconds, r8.total_seconds);
  EXPECT_EQ(r1.shuffle_task_seconds, r8.shuffle_task_seconds);
  EXPECT_EQ(r1.reduce_task_seconds, r8.reduce_task_seconds);
}

TEST(Counters, MergedAcrossTasksAndPhases) {
  const auto b1 = make_block({{"a", 3}, {"b", 2}});
  const auto b2 = make_block({{"a", 1}, {"c", 4}});
  dm::Job job;
  job.config.num_reducers = 4;
  job.mapper_factory = [] { return std::make_unique<CountingMapper>(); };
  job.reducer_factory = [] { return std::make_unique<CountingReducer>(); };
  dm::Engine engine({.num_nodes = 2});
  const auto report = engine.run(job, {{.node = 0, .data = b1, .charged_bytes = 0},
                                       {.node = 1, .data = b2, .charged_bytes = 0}});
  EXPECT_EQ(report.counters.at("records_seen"), 10u);
  EXPECT_EQ(report.counters.at("a_records"), 8u);  // 4 'a' records x 2
  EXPECT_EQ(report.counters.at("keys_reduced"), 3u);  // a, b, c
}

TEST(Counters, DeterministicAcrossThreadCounts) {
  const auto b = make_block({{"a", 20}, {"b", 10}});
  dm::Job job;
  job.mapper_factory = [] { return std::make_unique<CountingMapper>(); };
  job.reducer_factory = [] { return std::make_unique<CountingReducer>(); };
  const std::vector<dm::InputSplit> splits(
      4, {.node = 0, .data = b, .charged_bytes = 0});
  dm::Engine e1({.num_nodes = 1, .slots_per_node = 2, .execution_threads = 1});
  dm::Engine e8({.num_nodes = 1, .slots_per_node = 2, .execution_threads = 8});
  EXPECT_EQ(e1.run(job, splits).counters, e8.run(job, splits).counters);
}

TEST(Counters, AbsentWhenUnused) {
  const auto b = make_block({{"a", 2}});
  dm::Engine engine({.num_nodes = 1});
  const auto report =
      engine.run(key_count_job(), {{.node = 0, .data = b, .charged_bytes = 0}});
  EXPECT_TRUE(report.counters.empty());
}

// ---- grouping order ----

namespace {

// Every (key, values) call one combiner or reducer instance received.
using CallLog = std::vector<std::pair<std::string, std::vector<std::string>>>;

// Gathers the logs of every instance a factory made. Instances run on pool
// threads, so appends are locked and the logs compare as a sorted set.
struct LogSink {
  std::mutex mu;
  std::vector<CallLog> logs;
  std::vector<CallLog> sorted() {
    std::sort(logs.begin(), logs.end());
    return logs;
  }
};

// Logs each call. As a combiner it emits 0, 1 or 2 pairs per key, the
// second under a different key; as a reducer, one.
class RecordingReducer final : public dm::Reducer {
 public:
  RecordingReducer(LogSink& sink, bool combiner)
      : sink_(sink), combiner_(combiner) {}
  ~RecordingReducer() override {
    const std::lock_guard lock(sink_.mu);
    sink_.logs.push_back(std::move(log_));
  }
  void reduce(std::string_view key, std::span<const std::string_view> values,
              dm::Emitter& out) override {
    log_.emplace_back(key, std::vector<std::string>(values.begin(), values.end()));
    std::string joined;
    for (const auto& v : values) (joined += v) += ",";
    if (!combiner_) {
      out.emit(key, joined);
      return;
    }
    switch (datanet::common::hash_bytes(key) % 3) {
      case 0:
        break;
      case 1:
        out.emit(key, joined);
        break;
      default:
        out.emit(key, joined);
        out.emit("derived_" + std::string(key.substr(key.size() / 2)), key);
    }
  }

 private:
  LogSink& sink_;
  bool combiner_;
  CallLog log_;
};

// Emits each record's key with its unique timestamp, every third record a
// pair under a shared key, and at finish() the record count plus the last
// key seen again.
class OrderMapper final : public dm::Mapper {
 public:
  void map(const dw::RecordView& r, dm::Emitter& out) override {
    out.emit(std::string(r.key), std::to_string(r.timestamp));
    if (r.timestamp % 3 == 0) out.emit("shared", "s" + std::to_string(r.timestamp));
    ++records_;
    last_ = r.key;
  }
  void finish(dm::Emitter& out) override {
    out.emit("finish_count", std::to_string(records_));
    if (!last_.empty()) out.emit(last_, "last");
  }

 private:
  std::uint64_t records_ = 0;
  std::string last_;
};

class PairCollector final : public dm::Emitter {
 public:
  void emit(std::string_view key, std::string_view value) override {
    pairs.emplace_back(key, value);
  }
  std::vector<std::pair<dm::Key, dm::Value>> pairs;
};

// The engine's former grouping: stable sort by (partition hash, key), then
// one reduce call per run of equal keys.
std::vector<std::pair<dm::Key, dm::Value>> sort_and_reduce(
    dm::Reducer& reducer, std::vector<std::pair<dm::Key, dm::Value>> pairs) {
  std::stable_sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    const auto ha = dm::partition_hash(a.first);
    const auto hb = dm::partition_hash(b.first);
    return ha != hb ? ha < hb : a.first < b.first;
  });
  PairCollector out;
  for (std::size_t i = 0; i < pairs.size();) {
    std::vector<std::string_view> values;
    std::size_t j = i;
    for (; j < pairs.size() && pairs[j].first == pairs[i].first; ++j) {
      values.push_back(pairs[j].second);
    }
    reducer.reduce(pairs[i].first, values, out);
    i = j;
  }
  return std::move(out.pairs);
}

// Serial reference run: per task, map then sort-and-combine; partition by
// hash; per partition, concatenate the tasks' slices in order and
// sort-and-reduce.
void reference_run(const dm::Job& job, const std::vector<dm::InputSplit>& splits) {
  const std::uint32_t R = job.config.num_reducers;
  std::vector<std::vector<std::pair<dm::Key, dm::Value>>> partitions(R);
  for (const auto& split : splits) {
    PairCollector map_out;
    auto mapper = job.mapper_factory();
    (void)dw::for_each_record(split.data, [&](const dw::RecordView& rv) {
      mapper->map(rv, map_out);
    });
    mapper->finish(map_out);
    auto pairs = std::move(map_out.pairs);
    if (job.combiner_factory) {
      pairs = sort_and_reduce(*job.combiner_factory(), std::move(pairs));
    }
    for (auto& kv : pairs) {
      partitions[dm::partition_hash(kv.first) % R].push_back(std::move(kv));
    }
  }
  for (auto& part : partitions) {
    (void)sort_and_reduce(*job.reducer_factory(), std::move(part));
  }
}

}  // namespace

TEST(Engine, GroupingOrderMatchesStableSortReference) {
  const std::string prefix = "subdataset_with_a_long_shared_prefix_";
  const std::uint32_t reducer_counts[] = {1, 3, 8, 16, 5};
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    datanet::common::Rng rng(seed + 100);
    std::vector<std::string> blocks(1 + rng.bounded(9));
    std::uint64_t ts = 0;
    for (auto& block : blocks) {
      const auto records = rng.bounded(300);
      for (std::uint64_t i = 0; i < records; ++i) {
        const auto k = rng.bounded(60);
        const std::string key =
            k < 50 ? prefix + std::to_string(k) : "k" + std::to_string(k);
        block += std::to_string(ts++) + "\t" + key + "\tpayload\n";
      }
    }
    std::vector<dm::InputSplit> splits;
    for (std::size_t s = 0; s < blocks.size(); ++s) {
      splits.push_back({.node = static_cast<std::uint32_t>(s % 3),
                        .data = blocks[s],
                        .charged_bytes = 0});
    }
    for (const bool combiner : {false, true}) {
      LogSink ref_combine, ref_reduce;
      const auto make_job = [&](LogSink& combine_sink, LogSink& reduce_sink) {
        dm::Job job;
        job.config.num_reducers = reducer_counts[seed];
        job.mapper_factory = [] { return std::make_unique<OrderMapper>(); };
        job.reducer_factory = [&reduce_sink] {
          return std::make_unique<RecordingReducer>(reduce_sink, false);
        };
        if (combiner) {
          job.combiner_factory = [&combine_sink] {
            return std::make_unique<RecordingReducer>(combine_sink, true);
          };
        }
        return job;
      };
      reference_run(make_job(ref_combine, ref_reduce), splits);
      for (const std::uint32_t threads : {1u, 8u}) {
        LogSink combine_sink, reduce_sink;
        dm::Engine engine(
            {.num_nodes = 3, .slots_per_node = 2, .execution_threads = threads});
        const auto report =
            engine.run(make_job(combine_sink, reduce_sink), splits);
        const std::string where = "seed=" + std::to_string(seed) +
                                  " combiner=" + std::to_string(combiner) +
                                  " threads=" + std::to_string(threads);
        EXPECT_FALSE(report.output.empty()) << where;
        EXPECT_EQ(combine_sink.sorted(), ref_combine.sorted()) << where;
        EXPECT_EQ(reduce_sink.sorted(), ref_reduce.sorted()) << where;
      }
    }
  }
}

// ---- view lifetimes ----

namespace {

// Long enough that every scratch key leaves the small-string buffer, so
// freeing the scratch string really frees the bytes a view pointed at.
constexpr std::string_view kScratchPrefix = "scratch_key_past_the_sso_buffer_";

// Builds each pair in one member buffer, emits views into it, then
// overwrites and frees the buffer: a view the engine kept past emit would
// read '#' bytes, or freed memory under ASan.
class ScratchMapper final : public dm::Mapper {
 public:
  void map(const dw::RecordView& r, dm::Emitter& out) override {
    out.count("records");
    emit(out, r.key, std::to_string(r.timestamp % 7));
    if (r.timestamp % 3 == 0) emit(out, "shared", "1");
    ++records_;
  }
  void finish(dm::Emitter& out) override {
    emit(out, "finish_count", std::to_string(records_));
  }

 private:
  void emit(dm::Emitter& out, std::string_view key, std::string_view value) {
    ((scratch_ = kScratchPrefix) += key) += value;
    const std::string_view bytes(scratch_);
    const std::size_t key_size = kScratchPrefix.size() + key.size();
    out.emit(bytes.substr(0, key_size), bytes.substr(key_size));
    std::fill(scratch_.begin(), scratch_.end(), '#');
    std::string().swap(scratch_);
  }

  std::string scratch_;
  std::uint64_t records_ = 0;
};

// Sums the values and emits the key and the sum from two buffers it reuses
// (and scribbles over) from call to call.
class ScratchSumReducer final : public dm::Reducer {
 public:
  void reduce(std::string_view key, std::span<const std::string_view> values,
              dm::Emitter& out) override {
    out.count("keys_reduced");
    std::uint64_t sum = 0;
    for (const auto& v : values) {
      std::uint64_t x = 0;
      std::from_chars(v.data(), v.data() + v.size(), x);
      sum += x;
    }
    key_ = key;
    value_ = std::to_string(sum);
    out.emit(key_, value_);
    std::fill(key_.begin(), key_.end(), '#');
    std::fill(value_.begin(), value_.end(), '#');
  }

 private:
  std::string key_;
  std::string value_;
};

}  // namespace

TEST(Engine, EmittedViewsNeedOnlyLiveThroughEmit) {
  std::vector<std::string> blocks;
  for (int s = 0; s < 5; ++s) {
    std::string data;
    for (int i = 0; i < 300; ++i) {
      data += std::to_string(s * 1000 + i) + "\tkey_" +
              std::to_string((s * 31 + i * 7) % 41) + "\tpayload\n";
    }
    blocks.push_back(std::move(data));
  }
  std::vector<dm::InputSplit> splits;
  for (std::size_t s = 0; s < blocks.size(); ++s) {
    splits.push_back({.node = static_cast<std::uint32_t>(s % 3),
                      .data = blocks[s],
                      .charged_bytes = 0});
  }

  // Reference in owned strings: the sum per key, the pairs each task emits,
  // and the distinct keys per task (the pairs left after a combiner).
  std::map<std::string, std::uint64_t> sums;
  std::uint64_t records = 0;
  std::uint64_t emitted_pairs = 0;
  std::uint64_t combined_pairs = 0;
  for (const auto& split : splits) {
    std::map<std::string, std::uint64_t> task_sums;
    std::uint64_t task_records = 0;
    const auto add = [&](std::string_view key, std::uint64_t value) {
      task_sums[std::string(kScratchPrefix) + std::string(key)] += value;
      ++emitted_pairs;
    };
    (void)dw::for_each_record(split.data, [&](const dw::RecordView& rv) {
      add(rv.key, rv.timestamp % 7);
      if (rv.timestamp % 3 == 0) add("shared", 1);
      ++task_records;
    });
    add("finish_count", task_records);
    records += task_records;
    combined_pairs += task_sums.size();
    for (const auto& [key, sum] : task_sums) sums[key] += sum;
  }
  std::map<dm::Key, dm::Value> want_output;
  for (const auto& [key, sum] : sums) want_output[key] = std::to_string(sum);
  const std::map<std::string, std::uint64_t> want_counters = {
      {"keys_reduced", sums.size()}, {"records", records}};

  for (const bool combiner : {false, true}) {
    dm::Job job;
    job.config.num_reducers = 5;
    job.mapper_factory = [] { return std::make_unique<ScratchMapper>(); };
    job.reducer_factory = [] { return std::make_unique<ScratchSumReducer>(); };
    if (combiner) {
      job.combiner_factory = [] { return std::make_unique<ScratchSumReducer>(); };
    }
    for (const std::uint32_t threads : {1u, 4u}) {
      dm::Engine engine(
          {.num_nodes = 3, .slots_per_node = 2, .execution_threads = threads});
      const auto report = engine.run(job, splits);
      const std::string where = "combiner=" + std::to_string(combiner) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(report.output, want_output) << where;
      EXPECT_EQ(report.counters, want_counters) << where;
      EXPECT_EQ(report.map_output_pairs,
                combiner ? combined_pairs : emitted_pairs)
          << where;
    }
  }
}

// ---- JSON report serialization ----

#include "mapred/report_json.hpp"

TEST(ReportJson, ContainsTimingAggregatesAndCounters) {
  const auto b = make_block({{"a", 5}, {"b", 3}});
  dm::Engine engine({.num_nodes = 2});
  const auto report =
      engine.run(key_count_job(), {{.node = 0, .data = b, .charged_bytes = 0}});
  const auto json = dm::report_to_json(report);
  EXPECT_NE(json.find("\"total_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"input_records\":8"), std::string::npos);
  EXPECT_NE(json.find("\"output_keys\":2"), std::string::npos);
  EXPECT_EQ(json.find("\"output\":"), std::string::npos);  // not included
  const auto with_output = dm::report_to_json(report, /*include_output=*/true);
  EXPECT_NE(with_output.find("\"output\":{"), std::string::npos);
  EXPECT_NE(with_output.find("\"a\":\"5\""), std::string::npos);
  // Balanced braces as a cheap well-formedness check.
  EXPECT_EQ(std::count(with_output.begin(), with_output.end(), '{'),
            std::count(with_output.begin(), with_output.end(), '}'));
}
