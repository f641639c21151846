// select-scan: the paper's fig5 setup (32 nodes, 256 x 128 KiB movie
// blocks), one closed-loop caller. Each op is a job: a DataNet selection of
// a seeded key through SelectionRuntime + AnalyticBackend, then a WordCount
// run_analysis over the selected data. Scan work dominates: dfs reads,
// filter/materialize, and the engine re-scan inside AnalyticBackend::report.

#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "apps/word_count.hpp"
#include "bench.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "datanet/datanet.hpp"
#include "datanet/experiment.hpp"
#include "mapred/report_json.hpp"
#include "scheduler/datanet_sched.hpp"

namespace perfbench {
namespace {

namespace core = datanet::core;

constexpr std::uint64_t kBlocks = 256;
constexpr std::uint64_t kMovies = 2000;
constexpr int kSetupReps = 3;
constexpr std::uint64_t kColdFrom = 500;  // cold keys: popularity rank >= this
constexpr std::size_t kRoundOps = 50;      // one round = one window
constexpr std::size_t kRoundCold = 10;
constexpr std::uint32_t kFingerprintOps = 8;

// benchutil::paper_config's fig5 cluster shape, copied so that the
// benchmark's definition lives only in this directory.
core::ExperimentConfig paper_config() {
  core::ExperimentConfig cfg;
  cfg.num_nodes = 32;
  cfg.block_size = 128 * 1024;
  cfg.replication = 3;
  cfg.slots_per_node = 2;
  cfg.seed = 2016;
  return cfg;
}

class SelectScan {
 public:
  explicit SelectScan(const Options& o) : opt_(o), cfg_(paper_config()) {
    std::vector<double> total, dataset, emap;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      net_.reset();
      ds_ = {};
      const std::int64_t t0 = now_ns();
      ds_ = core::make_movie_dataset(cfg_, kBlocks, kMovies);
      const std::int64_t t1 = now_ns();
      net_ = std::make_unique<core::DataNet>(
          *ds_.dfs, ds_.path, datanet::elasticmap::BuildOptions{.alpha = 0.3});
      const std::int64_t t2 = now_ns();
      dataset.push_back(static_cast<double>(t1 - t0) / 1e6);
      emap.push_back(static_cast<double>(t2 - t1) / 1e6);
      total.push_back(static_cast<double>(t2 - t0) / 1e9);
    }
    setup_s_ = median(total);
    setup_dataset_ms_ = median(dataset);
    setup_emap_ms_ = median(emap);
  }

  Phase run(double seconds, Tracer& tr) {
    Phase p;
    core::DirectReadPolicy direct(*ds_.dfs, cfg_.remote_read_penalty);
    core::NoFaults faults;
    core::AnalyticBackend analytic;
    TimedRead read(direct, tr);
    TimedBackend timing(analytic, tr);
    const core::SelectionRuntime runtime(read, faults, timing);
    const datanet::mapred::Job wc = datanet::apps::make_word_count_job();
    KeySchedule keys(opt_.seed, ds_.hot_keys,
                     cold_keys(opt_.seed, kColdFrom, kMovies), kRoundOps,
                     kRoundCold);
    matched_bytes_ = 0;
    const std::int64_t start = now_ns();
    std::uint32_t op = 0;
    // Whole rounds only, so every run measures the same key mix.
    while (op < kFingerprintOps || seconds_since(start) < seconds ||
           !keys.round_done()) {
      const std::string& key = keys.next();
      tr.set_op(op++);
      core::SelectionResult sel;
      datanet::mapred::JobReport analysis;
      const std::int64_t t0 = now_ns();
      {
        const Tracer::Scope span(tr, "op");
        datanet::scheduler::DataNetScheduler sched;
        datanet::graph::BipartiteGraph graph = [&] {
          const Tracer::Scope g(tr, "datanet.graph");
          return net_->scheduling_graph(key);
        }();
        {
          const Tracer::Scope m(tr, "datanet.materialize");
          sel = runtime.run_graph(*ds_.dfs, graph, key, sched, cfg_);
        }
        const Tracer::Scope a(tr, "mapred.analysis");
        analysis = core::run_analysis(wc, sel, cfg_);
      }
      const std::int64_t t1 = now_ns();
      ++p.attempted;
      Window& w = p.window((op - 1) / kRoundOps);
      w.busy_s += static_cast<double>(t1 - t0) / 1e9;

      const LineSet got = selected_lines(sel);
      const LineSet& want = reference(key);
      matched_bytes_ += got.bytes;
      if (!(got == want) || analysis.input_records != want.lines) {
        ++p.failed;
      } else {
        ++w.ok_ops;
        w.latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      }
      if (fp_ops_ < kFingerprintOps) {
        for (const auto* report : {&sel.report, &analysis}) {
          const std::string json =
              datanet::mapred::report_to_json(*report, true);
          fingerprint_ = datanet::common::hash_combine(
              fingerprint_, datanet::common::hash_bytes(json));
        }
        ++fp_ops_;
      }
    }
    read_bytes_ = read.bytes;
    return p;
  }

  // The exact filter over every sealed block of the file, once per key.
  const LineSet& reference(const std::string& key) {
    auto it = refs_.find(key);
    if (it != refs_.end()) return it->second;
    LineSet s;
    for (const auto bid : ds_.dfs->blocks_of(ds_.path)) {
      s.merge(reference_filter(ds_.dfs->read_block(bid), key));
    }
    return refs_.emplace(key, s).first->second;
  }

  const Options& opt_;
  core::ExperimentConfig cfg_;
  core::StoredDataset ds_;
  std::unique_ptr<core::DataNet> net_;
  std::map<std::string, LineSet> refs_;
  double setup_s_ = 0, setup_dataset_ms_ = 0, setup_emap_ms_ = 0;
  std::uint64_t read_bytes_ = 0, matched_bytes_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::uint32_t fp_ops_ = 0;
};

}  // namespace

RunResult run_select_scan(const Options& o) {
  SelectScan w(o);
  RunResult r;
  Tracer off(false);
  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  const Phase base = w.run(untraced_s, off);
  r.attempted = base.attempted;
  r.failed = base.failed;
  add_common_metrics(r, base, w.setup_s_, 90);

  char buf[160];
  std::snprintf(buf, sizeof buf,
                "fingerprint=%016llx (simulated JobReports of the first %u "
                "ops)",
                static_cast<unsigned long long>(w.fingerprint_), w.fp_ops_);
  r.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf,
                "execution_threads=%u server_workers=0 client_connections=1",
                w.cfg_.execution_threads ? w.cfg_.execution_threads
                                         : std::thread::hardware_concurrency());
  r.notes.emplace_back(buf);

  r.per_layer = {{"setup.dataset_ms", w.setup_dataset_ms_, "ms"},
                 {"setup.elasticmap_build_ms", w.setup_emap_ms_, "ms"},
                 {"setup.server_start_ms", 0.0, "ms"}};
  if (!o.trace) return r;

  Tracer tr(true);
  const Phase traced = w.run(o.seconds / 2, tr);
  r.attempted += traced.attempted;
  r.failed += traced.failed;
  const auto totals = aggregate({&tr});
  const double ops = static_cast<double>(traced.attempted);
  add_layer_ms(r, totals, "dfs.read_ms", "dfs.read", true, ops);
  r.per_layer.push_back(
      {"dfs.read_bytes", static_cast<double>(w.read_bytes_) / ops, "bytes"});
  add_layer_ms(r, totals, "datanet.graph_ms", "datanet.graph", true, ops);
  add_layer_ms(r, totals, "scheduler.assign_ms", "scheduler.assign", true, ops);
  add_layer_ms(r, totals, "datanet.materialize_self_ms", "datanet.materialize",
               true, ops);
  add_layer_ms(r, totals, "mapred.report_ms", "mapred.report", true, ops);
  add_layer_ms(r, totals, "mapred.analysis_ms", "mapred.analysis", true, ops);
  r.per_layer.push_back({"datanet.useful_bytes_ratio",
                         w.read_bytes_ ? static_cast<double>(w.matched_bytes_) /
                                             static_cast<double>(w.read_bytes_)
                                       : 0.0,
                         "ratio"});
  add_residue(r, totals,
              {"dfs.read", "datanet.graph", "scheduler.assign",
               "datanet.materialize", "mapred.report", "mapred.analysis"},
              traced.busy_s() * 1e3, ops);
  r.per_layer.push_back({"trace.overhead_p50_ms",
                         traced.latency_ms(0.5) - base.latency_ms(0.5), "ms"});
  if (!o.spans_out.empty()) write_spans({&tr}, o.spans_out);
  return r;
}

}  // namespace perfbench
