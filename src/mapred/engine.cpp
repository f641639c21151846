#include "mapred/engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/arena.hpp"
#include "common/hash.hpp"
#include "common/thread_pool.hpp"

namespace datanet::mapred {

std::vector<std::string_view> split_at_record_boundaries(std::string_view data,
                                                         std::uint32_t pieces) {
  std::vector<std::string_view> chunks;
  if (data.empty()) return chunks;
  if (pieces == 0) pieces = 1;
  const std::uint64_t chunk = std::max<std::uint64_t>(data.size() / pieces, 1);
  std::size_t start = 0;
  while (start < data.size()) {
    std::size_t end = std::min<std::size_t>(start + chunk, data.size());
    if (end < data.size()) {
      const std::size_t nl = data.find('\n', end);
      end = (nl == std::string_view::npos) ? data.size() : nl + 1;
    }
    chunks.push_back(data.substr(start, end - start));
    start = end;
  }
  return chunks;
}

std::uint64_t apply_speculative_backups(
    std::vector<TaskTiming>& map_tasks, std::vector<double>& node_map_seconds,
    const std::function<double(std::size_t task, std::uint32_t node)>&
        backup_duration) {
  const std::size_t num_tasks = map_tasks.size();
  const auto num_nodes = static_cast<std::uint32_t>(node_map_seconds.size());
  if (num_tasks == 0 || num_nodes < 2) return 0;

  // Speculative execution: while one node finishes well after the rest, its
  // last-running task gets a backup on the earliest idle node and the
  // earlier copy wins. Iterated until no backup would finish earlier —
  // Hadoop keeps speculating as slots free up. (Results are unaffected;
  // only the simulated clock moves.)
  // Per-node "owner" of each task for recomputing node finish times.
  std::vector<std::uint32_t> owner(num_tasks);
  for (std::size_t t = 0; t < num_tasks; ++t) owner[t] = map_tasks[t].node;

  std::uint64_t backups = 0;
  const std::size_t max_waves = 4 * num_tasks;
  for (std::size_t wave = 0; wave < max_waves; ++wave) {
    const auto straggler = static_cast<std::uint32_t>(
        std::max_element(node_map_seconds.begin(), node_map_seconds.end()) -
        node_map_seconds.begin());
    std::uint32_t backup_node = straggler;
    double earliest_idle = node_map_seconds[straggler];
    for (std::uint32_t n = 0; n < num_nodes; ++n) {
      if (n == straggler) continue;
      if (node_map_seconds[n] < earliest_idle) {
        earliest_idle = node_map_seconds[n];
        backup_node = n;
      }
    }
    if (backup_node == straggler) break;

    // The straggler's last-finishing task.
    std::size_t tail = num_tasks;
    for (std::size_t t = 0; t < num_tasks; ++t) {
      if (owner[t] != straggler) continue;
      if (tail == num_tasks ||
          map_tasks[t].finish > map_tasks[tail].finish) {
        tail = t;
      }
    }
    if (tail == num_tasks) break;

    const double launch = std::max(earliest_idle, map_tasks[tail].start);
    const double backup_finish = launch + backup_duration(tail, backup_node);
    if (backup_finish >= map_tasks[tail].finish) break;  // no gain left

    map_tasks[tail].finish = backup_finish;
    map_tasks[tail].node = backup_node;
    owner[tail] = backup_node;
    ++backups;
    node_map_seconds[backup_node] =
        std::max(node_map_seconds[backup_node], backup_finish);
    double node_finish = 0.0;
    for (std::size_t t = 0; t < num_tasks; ++t) {
      if (owner[t] == straggler) {
        node_finish = std::max(node_finish, map_tasks[t].finish);
      }
    }
    node_map_seconds[straggler] = node_finish;
  }
  return backups;
}

namespace {

// Seed of the shuffle partitioner; the same hash orders the grouped keys.
constexpr std::uint64_t kPartitionSeed = 0x9e3779b9;

// The flat counter list lives on Emitter (the base count() bumps it without
// a virtual dispatch); the std::map materializes only when the engine
// merges tasks into the report.
using CounterList = Emitter::CounterList;

// A map-output pair with its partition hash computed once and carried along
// so the reduce stage never rehashes the key.
struct HashedPair {
  std::uint64_t hash = 0;
  Key key;
  Value value;
};

// The one grouping routine, shared by the combiner and the reducer. Pairs
// arrive as (hash, key, value); a flat open-addressing table keyed by
// (hash, key) gives each distinct key a dense group id, and values are kept
// in arrival order. reduce() then calls the reducer once per distinct key in
// (hash, key) order with that key's values in arrival order — the call
// sequence a stable sort of the pairs by (hash, key) produces, without
// sorting the pairs: only the distinct keys are sorted, and the values are
// placed by a counting sort over their group ids. As an Emitter it groups a
// combiner job's map output as it is emitted, counting into `counters`.
class KeyGrouper final : public Emitter {
 public:
  explicit KeyGrouper(CounterList* counters = nullptr) { counters_ = counters; }

  void emit(Key key, Value value) override {
    // add() takes references, so `key` is hashed before anything moves it.
    add(partition_hash(key), std::move(key), std::move(value));
  }

  void add(std::uint64_t hash, Key&& key, Value&& value) {
    if (2 * (groups_.size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot_of(hash);
    while (true) {
      Slot& s = slots_[i];
      if (s.group == kEmpty) {
        s = {hash, static_cast<std::uint32_t>(groups_.size())};
        groups_.push_back({hash, std::move(key), 0});
        break;
      }
      if (s.hash == hash && groups_[s.group].key == key) break;
      i = (i + 1) & mask;
    }
    const std::uint32_t g = slots_[i].group;
    ++groups_[g].count;
    ids_.push_back(g);
    values_.push_back(std::move(value));
  }

  void reduce(Reducer& reducer, Emitter& out) {
    std::vector<std::uint32_t> order(groups_.size());
    for (std::uint32_t g = 0; g < order.size(); ++g) order[g] = g;
    std::sort(order.begin(), order.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                const Group& x = groups_[a];
                const Group& y = groups_[b];
                if (x.hash != y.hash) return x.hash < y.hash;
                return x.key < y.key;
              });
    // Each group's values land contiguously, groups in visiting order.
    std::vector<std::uint32_t> next(groups_.size());
    std::uint32_t offset = 0;
    for (const std::uint32_t g : order) {
      next[g] = offset;
      offset += groups_[g].count;
    }
    std::vector<Value> grouped(values_.size());
    for (std::size_t i = 0; i < values_.size(); ++i) {
      grouped[next[ids_[i]]++] = std::move(values_[i]);
    }
    const std::span<const Value> all(grouped);
    offset = 0;
    for (const std::uint32_t g : order) {
      reducer.reduce(groups_[g].key, all.subspan(offset, groups_[g].count),
                     out);
      offset += groups_[g].count;
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffff;
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t group = kEmpty;
  };
  struct Group {
    std::uint64_t hash;
    Key key;
    std::uint32_t count;
  };

  // Top bits: every key of one reduce partition shares hash % R, so the low
  // bits would cluster.
  [[nodiscard]] std::size_t slot_of(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash >> shift_);
  }

  void grow() {
    const std::size_t capacity = slots_.empty() ? 64 : 2 * slots_.size();
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    slots_.assign(capacity, Slot{});
    for (std::uint32_t g = 0; g < groups_.size(); ++g) {
      std::size_t i = slot_of(groups_[g].hash);
      while (slots_[i].group != kEmpty) i = (i + 1) & (capacity - 1);
      slots_[i] = {groups_[g].hash, g};
    }
  }

  std::vector<Slot> slots_;  // power-of-two size, at most half full
  unsigned shift_ = 64;
  std::vector<Group> groups_;
  std::vector<std::uint32_t> ids_;  // group of each value, arrival order
  std::vector<Value> values_;       // arrival order
};

struct TaskResult {
  // The task's scratch arena backs `partitions`; declared first so the
  // vectors die before their memory does.
  std::unique_ptr<common::Arena> arena;
  // Post-combiner map output, already split into one vector per reducer
  // (index = hash % R) — the serial global partition loop is gone.
  std::vector<common::ArenaVector<HashedPair>> partitions;
  std::vector<std::uint64_t> partition_bytes;  // per reducer, this task only
  std::uint64_t pair_count = 0;
  CounterList counters;
  std::uint64_t records = 0;
  std::uint64_t skipped = 0;
};

// Hashes each emitted key once and appends the pair to its reducer's slice
// of the task result, in emission order. Counts go to `counters`; null drops
// them (combiner counts never reached the report).
class PartitionEmitter final : public Emitter {
 public:
  PartitionEmitter(TaskResult& r, std::uint32_t num_reducers,
                   CounterList* counters)
      : r_(r) {
    counters_ = counters;
    r.partitions.reserve(num_reducers);
    for (std::uint32_t p = 0; p < num_reducers; ++p) {
      r.partitions.emplace_back(common::ArenaAllocator<HashedPair>(*r.arena));
    }
    r.partition_bytes.assign(num_reducers, 0);
  }
  void emit(Key key, Value value) override {
    const std::uint64_t h = partition_hash(key);
    const auto p = static_cast<std::uint32_t>(h % r_.partitions.size());
    r_.partition_bytes[p] += key.size() + value.size() + 2;
    r_.partitions[p].push_back(HashedPair{h, std::move(key), std::move(value)});
    ++r_.pair_count;
  }

 private:
  TaskResult& r_;
};

// Collects reducer output in emission order.
class VectorEmitter final : public Emitter {
 public:
  explicit VectorEmitter(CounterList& counters) { counters_ = &counters; }
  void emit(Key key, Value value) override {
    pairs_.emplace_back(std::move(key), std::move(value));
  }
  [[nodiscard]] std::vector<std::pair<Key, Value>>& pairs() { return pairs_; }

 private:
  std::vector<std::pair<Key, Value>> pairs_;
};

}  // namespace

std::uint64_t partition_hash(std::string_view key) {
  return common::hash_bytes(key, kPartitionSeed);
}

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  if (options_.num_nodes == 0) throw std::invalid_argument("num_nodes == 0");
  if (options_.slots_per_node == 0) {
    throw std::invalid_argument("slots_per_node == 0");
  }
  if (!options_.node_speed.empty()) {
    if (options_.node_speed.size() != options_.num_nodes) {
      throw std::invalid_argument("node_speed size != num_nodes");
    }
    for (const double s : options_.node_speed) {
      if (!(s > 0.0)) throw std::invalid_argument("node_speed must be > 0");
    }
  }
}

JobReport Engine::run(const Job& job, const std::vector<InputSplit>& splits) const {
  if (!job.mapper_factory || !job.reducer_factory) {
    throw std::invalid_argument("job needs mapper and reducer factories");
  }
  if (job.config.num_reducers == 0) {
    throw std::invalid_argument("num_reducers == 0");
  }
  for (const auto& s : splits) {
    if (s.node >= options_.num_nodes) {
      throw std::invalid_argument("split placed on nonexistent node");
    }
  }

  JobReport report;
  const std::uint32_t R = job.config.num_reducers;

  // One pool serves the whole run: map tasks and the per-partition
  // group+reduce stage share it.
  const std::uint32_t threads =
      options_.execution_threads
          ? options_.execution_threads
          : std::max(1u, std::thread::hardware_concurrency());
  common::ThreadPool pool(threads);
  const auto wall_now = [] { return std::chrono::steady_clock::now(); };
  const auto wall_since = [](std::chrono::steady_clock::time_point t0,
                             std::chrono::steady_clock::time_point t1) {
    return std::chrono::duration<double>(t1 - t0).count();
  };

  // ---- Real map execution (parallel, order-independent results). ----
  // Each task emits R pre-partitioned vectors with the key hash computed
  // once and cached alongside the pair; nothing after the map barrier ever
  // rehashes a key. With a combiner, map output is grouped by key as it is
  // emitted, and the combiner's output is what gets partitioned.
  const auto wall_map_start = wall_now();
  std::vector<TaskResult> results(splits.size());
  const bool combine = static_cast<bool>(job.combiner_factory);
  common::parallel_for(
      pool, splits.size(),
      [&](std::size_t t) {
        TaskResult& r = results[t];
        r.arena = std::make_unique<common::Arena>();
        PartitionEmitter partitioned(r, R, combine ? nullptr : &r.counters);
        KeyGrouper grouper(&r.counters);
        Emitter& out = combine ? static_cast<Emitter&>(grouper) : partitioned;
        auto mapper = job.mapper_factory();
        r.skipped = workload::for_each_record(
            splits[t].data, [&](const workload::RecordView& rv) {
              mapper->map(rv, out);
              ++r.records;
            });
        mapper->finish(out);
        if (combine) grouper.reduce(*job.combiner_factory(), partitioned);
      },
      /*grain=*/1);  // map tasks are coarse; chunking would serialize them
  const auto wall_map_end = wall_now();
  report.wall_map_seconds = wall_since(wall_map_start, wall_map_end);

  // ---- Deterministic simulated map timing. ----
  report.map_tasks.resize(splits.size());
  report.node_map_seconds.assign(options_.num_nodes, 0.0);
  const auto speed_of = [&](std::uint32_t node) {
    return options_.node_speed.empty() ? 1.0 : options_.node_speed[node];
  };
  {
    // Per node: multi-slot list scheduling in task arrival order.
    std::vector<std::vector<double>> slot_free(
        options_.num_nodes, std::vector<double>(options_.slots_per_node, 0.0));
    for (std::size_t t = 0; t < splits.size(); ++t) {
      const InputSplit& split = splits[t];
      auto& slots = slot_free[split.node];
      auto it = std::min_element(slots.begin(), slots.end());
      const double start = *it;
      const double dur = job.config.cost.map_seconds(split.effective_bytes(),
                                                     results[t].records) /
                         speed_of(split.node);
      *it = start + dur;
      report.map_tasks[t] = TaskTiming{split.node, start, start + dur};
      report.node_map_seconds[split.node] =
          std::max(report.node_map_seconds[split.node], start + dur);
    }
  }

  if (options_.speculative && options_.num_nodes > 1 && !splits.empty()) {
    report.attempts.timing_backups = apply_speculative_backups(
        report.map_tasks, report.node_map_seconds,
        [&](std::size_t t, std::uint32_t node) {
          return job.config.cost.map_seconds(splits[t].effective_bytes(),
                                             results[t].records) /
                 speed_of(node);
        });
  }

  report.map_phase_seconds = splits.empty()
                                 ? 0.0
                                 : *std::max_element(report.node_map_seconds.begin(),
                                                     report.node_map_seconds.end());
  report.first_map_finish_seconds = report.map_phase_seconds;
  for (const auto& tt : report.map_tasks) {
    report.first_map_finish_seconds =
        std::min(report.first_map_finish_seconds, tt.finish);
  }

  // ---- Shuffle: size each reducer's partition. ----
  const auto wall_shuffle_start = wall_now();
  std::vector<std::uint64_t> partition_bytes(R, 0);
  for (std::size_t t = 0; t < splits.size(); ++t) {
    report.input_records += results[t].records;
    report.skipped_lines += results[t].skipped;
    report.input_bytes += splits[t].data.size();
    report.map_output_pairs += results[t].pair_count;
    for (const auto& [name, v] : results[t].counters) {
      report.counters[name] += v;  // report.counters is a map: order-free
    }
    for (std::uint32_t p = 0; p < R; ++p) {
      partition_bytes[p] += results[t].partition_bytes[p];
    }
  }
  for (std::uint32_t p = 0; p < R; ++p) report.shuffle_bytes += partition_bytes[p];

  report.shuffle_task_seconds.resize(R);
  for (std::uint32_t p = 0; p < R; ++p) {
    // Paper semantics: a shuffle task is alive from the first map completion
    // until the last map completes, plus its own transfer time.
    const double wait = splits.empty() ? 0.0
                                       : report.map_phase_seconds -
                                             report.first_map_finish_seconds;
    report.shuffle_task_seconds[p] =
        wait + job.config.cost.transfer_seconds(partition_bytes[p]);
  }
  report.shuffle_phase_seconds =
      R ? *std::max_element(report.shuffle_task_seconds.begin(),
                            report.shuffle_task_seconds.end())
        : 0.0;

  // ---- Real reduce (parallel over partitions) + simulated timing. ----
  // Each partition groups every task's slice in task order — so each key's
  // values arrive task-then-emit — and reduces independently on the pool
  // into per-partition buffers; the merge below runs serially in partition
  // order, so output and counters are identical at any thread count.
  std::vector<std::vector<std::pair<Key, Value>>> reduced(R);
  std::vector<CounterList> reduce_counters(R);
  common::parallel_for(pool, R, [&](std::size_t p) {
    KeyGrouper grouper;
    for (auto& r : results) {
      for (auto& hp : r.partitions[p]) {
        grouper.add(hp.hash, std::move(hp.key), std::move(hp.value));
      }
    }
    VectorEmitter out(reduce_counters[p]);
    grouper.reduce(*job.reducer_factory(), out);
    reduced[p] = std::move(out.pairs());
  });
  report.reduce_task_seconds.resize(R);
  for (std::uint32_t p = 0; p < R; ++p) {
    for (auto& kv : reduced[p]) report.output.insert(std::move(kv));
    for (const auto& [name, v] : reduce_counters[p]) report.counters[name] += v;
    report.reduce_task_seconds[p] =
        job.config.cost.reduce_seconds(partition_bytes[p]);
  }
  report.wall_shuffle_reduce_seconds =
      wall_since(wall_shuffle_start, wall_now());
  report.reduce_phase_seconds =
      R ? *std::max_element(report.reduce_task_seconds.begin(),
                            report.reduce_task_seconds.end())
        : 0.0;

  // Total: map phase, then the slowest reducer's transfer + reduce. The wait
  // component of shuffle overlaps the map phase tail by construction.
  double tail = 0.0;
  for (std::uint32_t p = 0; p < R; ++p) {
    tail = std::max(tail, job.config.cost.transfer_seconds(partition_bytes[p]) +
                              report.reduce_task_seconds[p]);
  }
  report.total_seconds = report.map_phase_seconds + tail;
  return report;
}

}  // namespace datanet::mapred
