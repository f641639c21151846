#include "mapred/engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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

namespace {

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

void validate(const EngineOptions& options) {
  if (options.num_nodes == 0) throw std::invalid_argument("num_nodes == 0");
  if (options.slots_per_node == 0) {
    throw std::invalid_argument("slots_per_node == 0");
  }
  if (!options.node_speed.empty()) {
    if (options.node_speed.size() != options.num_nodes) {
      throw std::invalid_argument("node_speed size != num_nodes");
    }
    for (const double s : options.node_speed) {
      if (!(s > 0.0)) throw std::invalid_argument("node_speed must be > 0");
    }
  }
}

// Seed of the shuffle partitioner; the same hash orders the grouped keys.
constexpr std::uint64_t kPartitionSeed = 0x9e3779b9;

// The flat counter list lives on Emitter (the base count() bumps it without
// a virtual dispatch); the std::map materializes only when the engine
// merges tasks into the report.
using CounterList = Emitter::CounterList;

// A map-output pair with its partition hash computed once and carried along
// so the reduce stage never rehashes the key. Both views point into the map
// task's arena, which lives until Engine::run returns.
struct HashedPair {
  std::uint64_t hash = 0;
  std::string_view key;
  std::string_view value;
};

// The one grouping routine, shared by the combiner and the reducer. Pairs
// arrive as (hash, key, value); a flat open-addressing table keyed by
// (hash, key) gives each distinct key a dense group id, and values are kept
// in arrival order. reduce() then calls the reducer once per distinct key in
// (hash, key) order with that key's values in arrival order — the call
// sequence a stable sort of the pairs by (hash, key) produces, without
// sorting the pairs: only the distinct keys are sorted, and the values are
// placed by a counting sort over their group ids.
//
// Two ways in. As the map task's Emitter in a combiner job, emit() copies
// each new key into the task arena once and appends each value to one flat
// buffer, counting into `counters`. At the reduce stage, add() borrows keys
// and values that already live in the task arenas and copies nothing.
class KeyGrouper final : public Emitter {
 public:
  KeyGrouper() = default;
  KeyGrouper(common::Arena& arena, CounterList* counters) : arena_(&arena) {
    counters_ = counters;
  }

  void emit(std::string_view key, std::string_view value) override {
    ids_.push_back(group_of(partition_hash(key), key));
    value_bytes_.append(value);
    value_ends_.push_back(value_bytes_.size());
  }

  void add(std::uint64_t hash, std::string_view key, std::string_view value) {
    ids_.push_back(group_of(hash, key));
    values_.push_back(value);
  }

  void reduce(Reducer& reducer, Emitter& out) {
    // Distinct keys in (hash, key) order, sorted as flat (hash, group)
    // pairs: keys are compared only inside a run of equal hashes.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> order(groups_.size());
    for (std::uint32_t g = 0; g < order.size(); ++g) {
      order[g] = {groups_[g].hash, g};
    }
    std::sort(order.begin(), order.end(), [this](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      return groups_[a.second].key < groups_[b.second].key;
    });
    // Each group's values land contiguously, groups in visiting order.
    std::vector<std::size_t> next(groups_.size());
    std::size_t offset = 0;
    for (const auto& [hash, g] : order) {
      next[g] = offset;
      offset += groups_[g].count;
    }
    std::vector<std::string_view> grouped(ids_.size());
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      grouped[next[ids_[i]]++] = value(i);
    }
    const std::span<const std::string_view> all(grouped);
    offset = 0;
    for (const auto& [hash, g] : order) {
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
    std::string_view key;
    std::uint32_t count;
  };

  // The group of (hash, key), opened on first sight; an emitted key is then
  // copied into the arena, a borrowed one is kept as it is.
  std::uint32_t group_of(std::uint64_t hash, std::string_view key) {
    if (2 * (groups_.size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = slot_of(hash);; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.group == kEmpty) {
        s = {hash, static_cast<std::uint32_t>(groups_.size())};
        if (arena_ != nullptr) {
          char* bytes = static_cast<char*>(arena_->allocate(key.size(), 1));
          std::ranges::copy(key, bytes);
          key = {bytes, key.size()};
        }
        groups_.push_back({hash, key, 1});
        return s.group;
      }
      if (s.hash == hash && groups_[s.group].key == key) {
        ++groups_[s.group].count;
        return s.group;
      }
    }
  }

  // The i-th value in arrival order.
  [[nodiscard]] std::string_view value(std::size_t i) const {
    if (arena_ == nullptr) return values_[i];
    const std::size_t begin = i == 0 ? 0 : value_ends_[i - 1];
    return std::string_view(value_bytes_).substr(begin, value_ends_[i] - begin);
  }

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

  common::Arena* arena_ = nullptr;  // null: keys and values are borrowed
  std::vector<Slot> slots_;  // power-of-two size, at most half full
  unsigned shift_ = 64;
  std::vector<Group> groups_;
  std::vector<std::uint32_t> ids_;  // group of each value, arrival order
  std::vector<std::string_view> values_;  // borrowed values, arrival order
  std::string value_bytes_;               // emitted values, back to back
  std::vector<std::size_t> value_ends_;   // end of each in value_bytes_
};

struct TaskResult {
  // The task's scratch arena backs `partitions` and every key and value
  // byte they view; declared first so the vectors die before their memory
  // does.
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

// Hashes each emitted key once, copies the key and value bytes into the task
// arena and appends the pair to its reducer's slice of the task result, in
// emission order. Counts go to `counters`; null drops them (combiner counts
// never reached the report).
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
  void emit(std::string_view key, std::string_view value) override {
    const std::uint64_t h = partition_hash(key);
    const auto p = static_cast<std::uint32_t>(h % r_.partitions.size());
    r_.partition_bytes[p] += key.size() + value.size() + 2;
    char* bytes = static_cast<char*>(
        r_.arena->allocate(key.size() + value.size(), 1));
    std::ranges::copy(key, bytes);
    std::ranges::copy(value, bytes + key.size());
    r_.partitions[p].push_back(
        HashedPair{h, {bytes, key.size()}, {bytes + key.size(), value.size()}});
    ++r_.pair_count;
  }

 private:
  TaskResult& r_;
};

// Collects reducer output in emission order, as owned strings.
class VectorEmitter final : public Emitter {
 public:
  explicit VectorEmitter(CounterList& counters) { counters_ = &counters; }
  void emit(std::string_view key, std::string_view value) override {
    pairs_.emplace_back(key, value);
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
  validate(options_);
}

void price(const CostModel& cost, const EngineOptions& options,
           const std::vector<InputSplit>& splits,
           const std::vector<std::uint64_t>& task_records,
           const std::vector<std::uint64_t>& partition_bytes,
           JobReport& report) {
  validate(options);
  for (const auto& s : splits) {
    if (s.node >= options.num_nodes) {
      throw std::invalid_argument("split placed on nonexistent node");
    }
  }
  const auto R = static_cast<std::uint32_t>(partition_bytes.size());

  // ---- Map: per node, multi-slot list scheduling in task arrival order. ----
  report.map_tasks.resize(splits.size());
  report.node_map_seconds.assign(options.num_nodes, 0.0);
  const auto speed_of = [&](std::uint32_t node) {
    return options.node_speed.empty() ? 1.0 : options.node_speed[node];
  };
  {
    std::vector<std::vector<double>> slot_free(
        options.num_nodes, std::vector<double>(options.slots_per_node, 0.0));
    for (std::size_t t = 0; t < splits.size(); ++t) {
      const InputSplit& split = splits[t];
      auto& slots = slot_free[split.node];
      auto it = std::min_element(slots.begin(), slots.end());
      const double start = *it;
      const double dur =
          cost.map_seconds(split.effective_bytes(), task_records[t]) /
          speed_of(split.node);
      *it = start + dur;
      report.map_tasks[t] = TaskTiming{split.node, start, start + dur};
      report.node_map_seconds[split.node] =
          std::max(report.node_map_seconds[split.node], start + dur);
    }
  }

  if (options.speculative && options.num_nodes > 1 && !splits.empty()) {
    report.attempts.timing_backups = apply_speculative_backups(
        report.map_tasks, report.node_map_seconds,
        [&](std::size_t t, std::uint32_t node) {
          return cost.map_seconds(splits[t].effective_bytes(),
                                  task_records[t]) /
                 speed_of(node);
        });
  }

  report.map_phase_seconds =
      splits.empty() ? 0.0
                     : *std::max_element(report.node_map_seconds.begin(),
                                         report.node_map_seconds.end());
  report.first_map_finish_seconds = report.map_phase_seconds;
  for (const auto& tt : report.map_tasks) {
    report.first_map_finish_seconds =
        std::min(report.first_map_finish_seconds, tt.finish);
  }

  // ---- Shuffle: each reducer's partition transfer. ----
  report.shuffle_bytes = 0;
  report.shuffle_task_seconds.resize(R);
  for (std::uint32_t p = 0; p < R; ++p) {
    report.shuffle_bytes += partition_bytes[p];
    // Paper semantics: a shuffle task is alive from the first map completion
    // until the last map completes, plus its own transfer time.
    const double wait = splits.empty() ? 0.0
                                       : report.map_phase_seconds -
                                             report.first_map_finish_seconds;
    report.shuffle_task_seconds[p] =
        wait + cost.transfer_seconds(partition_bytes[p]);
  }
  report.shuffle_phase_seconds =
      R ? *std::max_element(report.shuffle_task_seconds.begin(),
                            report.shuffle_task_seconds.end())
        : 0.0;

  // ---- Reduce, then the total. ----
  report.reduce_task_seconds.resize(R);
  for (std::uint32_t p = 0; p < R; ++p) {
    report.reduce_task_seconds[p] = cost.reduce_seconds(partition_bytes[p]);
  }
  report.reduce_phase_seconds =
      R ? *std::max_element(report.reduce_task_seconds.begin(),
                            report.reduce_task_seconds.end())
        : 0.0;

  // Total: map phase, then the slowest reducer's transfer + reduce. The wait
  // component of shuffle overlaps the map phase tail by construction.
  double tail = 0.0;
  for (std::uint32_t p = 0; p < R; ++p) {
    tail = std::max(tail, cost.transfer_seconds(partition_bytes[p]) +
                              report.reduce_task_seconds[p]);
  }
  report.total_seconds = report.map_phase_seconds + tail;
}

JobReport Engine::run(const Job& job, const std::vector<InputSplit>& splits) const {
  if (!job.mapper_factory || !job.reducer_factory) {
    throw std::invalid_argument("job needs mapper and reducer factories");
  }
  if (job.config.num_reducers == 0) {
    throw std::invalid_argument("num_reducers == 0");
  }

  JobReport report;
  const std::uint32_t R = job.config.num_reducers;

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
      options_.execution_threads, splits.size(),
      [&](std::size_t t) {
        TaskResult& r = results[t];
        r.arena = std::make_unique<common::Arena>();
        PartitionEmitter partitioned(r, R, combine ? nullptr : &r.counters);
        KeyGrouper grouper(*r.arena, &r.counters);
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

  // ---- Shuffle: merge the task counters, size each reducer's partition. ----
  const auto wall_shuffle_start = wall_now();
  std::vector<std::uint64_t> task_records(splits.size());
  std::vector<std::uint64_t> partition_bytes(R, 0);
  for (std::size_t t = 0; t < splits.size(); ++t) {
    task_records[t] = results[t].records;
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

  // ---- Real reduce (parallel over partitions). ----
  // Each partition groups every task's slice in task order — so each key's
  // values arrive task-then-emit — and reduces independently on the pool
  // into per-partition buffers; the merge below runs serially in partition
  // order, so output and counters are identical at any thread count.
  std::vector<std::vector<std::pair<Key, Value>>> reduced(R);
  std::vector<CounterList> reduce_counters(R);
  common::parallel_for(options_.execution_threads, R, [&](std::size_t p) {
    KeyGrouper grouper;
    for (const auto& r : results) {
      for (const auto& hp : r.partitions[p]) {
        grouper.add(hp.hash, hp.key, hp.value);
      }
    }
    VectorEmitter out(reduce_counters[p]);
    grouper.reduce(*job.reducer_factory(), out);
    reduced[p] = std::move(out.pairs());
  });
  for (std::uint32_t p = 0; p < R; ++p) {
    for (auto& kv : reduced[p]) report.output.insert(std::move(kv));
    for (const auto& [name, v] : reduce_counters[p]) report.counters[name] += v;
  }
  report.wall_shuffle_reduce_seconds =
      wall_since(wall_shuffle_start, wall_now());

  // ---- Deterministic simulated timing. ----
  price(job.config.cost, options_, splits, task_records, partition_bytes,
        report);
  return report;
}

}  // namespace datanet::mapred
