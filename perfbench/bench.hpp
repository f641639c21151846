#pragma once
// Shared pieces of the three benchmark workloads: run options, the result
// every workload returns, latency statistics, the exact-filter oracle, and
// the decorators that time calls into the selection runtime's seams.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "datanet/selection_runtime.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  // where the traced run writes its spans
  std::string tmp_dir;    // scratch space for journals and images
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  // untraced
  std::vector<Metric> per_layer;   // traced (only with --trace 1)
  std::vector<std::string> notes;  // host facts, sample counts, fingerprint
};

// A slice of a measured phase. Metrics are computed per window and the
// median across windows is reported, so a burst of interference from
// outside the process moves one window, not the run's figures.
struct Window {
  std::vector<double> latency_ms;  // one sample per timed op that succeeded
  std::uint64_t ok_ops = 0;
  double busy_s = 0.0;  // wall spent in the system, oracle work excluded
};

// One measured phase of a workload, traced or not.
struct Phase {
  std::vector<Window> windows;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  Window& window(std::size_t w) {
    if (windows.size() <= w) windows.resize(w + 1);
    return windows[w];
  }
  [[nodiscard]] std::vector<double> all_latency_ms() const;
  [[nodiscard]] double busy_s() const;
  // Median across windows of each window's latency percentile p in [0, 1].
  [[nodiscard]] double latency_ms(double p) const;
  // Median across windows of ok ops per busy second.
  [[nodiscard]] double throughput() const;
};

// Time windows per phase of serve-small and ingest-recover.
constexpr std::size_t kWindows = 20;

// Index of the time window that an event `elapsed_s` into a phase of
// `seconds` falls in; late events join the last window.
[[nodiscard]] std::size_t window_of(double elapsed_s, double seconds);

[[nodiscard]] double median(std::vector<double> v);
// Linear-interpolated percentile, p in [0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double peak_rss_mib();
[[nodiscard]] double seconds_since(std::int64_t start_ns);

// The end-to-end metrics every workload reports, plus their notes.
void add_common_metrics(RunResult& r, const Phase& p, double setup_s,
                        std::uint32_t worst_percentile);

// Layer metrics derived from span totals: mean self (or total) time per op.
void add_layer_ms(RunResult& r, const std::map<std::string, LayerTotals>& t,
                  const char* metric, const char* span, bool self,
                  double ops);
// End-to-end time not attributed to any named layer span, per op.
void add_residue(RunResult& r, const std::map<std::string, LayerTotals>& t,
                 const std::vector<std::string>& layer_spans,
                 double end_to_end_ms, double ops);

// ---- the exact-filter oracle ----

// Order-insensitive summary of a set of record lines.
struct LineSet {
  std::uint64_t lines = 0;
  std::uint64_t bytes = 0;
  std::uint64_t sum = 0;  // sum of per-line hashes
  std::uint64_t mix = 0;  // xor of re-mixed per-line hashes
  void add(std::string_view line);
  void add_all(std::string_view newline_separated);
  void merge(const LineSet& o);
  bool operator==(const LineSet&) const = default;
};

// Reference selection of `key` from one block: the decode-everything filter.
[[nodiscard]] LineSet reference_filter(std::string_view block,
                                       const std::string& key);

// Lines a selection materialized, across all nodes.
[[nodiscard]] LineSet selected_lines(const datanet::core::SelectionResult& r);

// ---- decorators around the runtime seams ----

// Times and counts every block read.
class TimedRead final : public datanet::core::ReplicaReadPolicy {
 public:
  TimedRead(datanet::core::ReplicaReadPolicy& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}
  [[nodiscard]] datanet::core::ReplicaRead read(
      datanet::dfs::BlockId block, datanet::dfs::NodeId node) override;
  std::uint64_t bytes = 0;

 private:
  datanet::core::ReplicaReadPolicy* inner_;
  Tracer* tracer_;
};

// Times the scheduler drive and the selection-phase report.
class TimedBackend final : public datanet::core::TimingBackend {
 public:
  TimedBackend(datanet::core::TimingBackend& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}
  [[nodiscard]] datanet::scheduler::AssignmentRecord assign(
      datanet::scheduler::TaskScheduler& sched,
      const datanet::graph::BipartiteGraph& graph,
      const std::vector<std::uint64_t>& block_bytes) override;
  [[nodiscard]] datanet::mapred::JobReport report(
      const std::string& key,
      const std::vector<datanet::mapred::InputSplit>& splits,
      const datanet::core::ExperimentConfig& cfg,
      const std::vector<double>& node_speeds,
      const datanet::mapred::AttemptCounters& attempts) override;

 private:
  datanet::core::TimingBackend* inner_;
  Tracer* tracer_;
};

// ---- key mix ----

// Seeded pool of kColdPool tail keys "movie_NNNNN" with popularity rank in
// [from_rank, num_movies).
constexpr std::size_t kColdPool = 16;
[[nodiscard]] std::vector<std::string> cold_keys(std::uint64_t seed,
                                                 std::uint64_t from_rank,
                                                 std::uint64_t num_movies);

// Keys in rounds of `round_ops` picks: the hot keys in exact Zipf(1.0)
// proportions (largest-remainder quotas) plus `round_cold` picks from the
// cold pool, shuffled by the seed. Every round has the same mix, so the
// latency distribution keeps its shape from seed to seed; the seed moves
// the order and which cold keys are asked.
class KeySchedule {
 public:
  KeySchedule(std::uint64_t seed, std::vector<std::string> hot,
              std::vector<std::string> cold, std::size_t round_ops,
              std::size_t round_cold);
  const std::string& next();
  [[nodiscard]] bool round_done() const { return pos_ == round_.size(); }

 private:
  datanet::common::Rng rng_;
  std::vector<std::string> hot_;
  std::vector<std::string> cold_;
  std::vector<std::size_t> quota_;  // picks per round, per hot key
  std::size_t round_cold_;
  std::vector<const std::string*> round_;
  std::size_t pos_ = 0;
};

// Workload entry points.
RunResult run_select_scan(const Options& o);
RunResult run_serve_small(const Options& o);
RunResult run_ingest_recover(const Options& o);

}  // namespace perfbench
