#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "common/hash.hpp"
#include "stats/zipf.hpp"

namespace perfbench {

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

std::vector<double> Phase::all_latency_ms() const {
  std::vector<double> all;
  for (const Window& w : windows) {
    all.insert(all.end(), w.latency_ms.begin(), w.latency_ms.end());
  }
  return all;
}

double Phase::busy_s() const {
  double s = 0.0;
  for (const Window& w : windows) s += w.busy_s;
  return s;
}

double Phase::latency_ms(double p) const {
  std::vector<double> per_window;
  for (const Window& w : windows) {
    if (!w.latency_ms.empty()) {
      per_window.push_back(percentile(w.latency_ms, p));
    }
  }
  return median(per_window);
}

double Phase::throughput() const {
  std::vector<double> per_window;
  for (const Window& w : windows) {
    if (w.busy_s > 0) {
      per_window.push_back(static_cast<double>(w.ok_ops) / w.busy_s);
    }
  }
  return median(per_window);
}

std::size_t window_of(double elapsed_s, double seconds) {
  return std::min(kWindows - 1,
                  static_cast<std::size_t>(elapsed_s / seconds * kWindows));
}

void add_common_metrics(RunResult& r, const Phase& p, double setup_s,
                        std::uint32_t worst_percentile) {
  r.end_to_end.push_back({"setup_s", setup_s, "s"});
  r.end_to_end.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  r.end_to_end.push_back({"throughput_ops_per_s", p.throughput(), "1/s"});
  r.end_to_end.push_back({"latency_p50_ms", p.latency_ms(0.50), "ms"});
  r.end_to_end.push_back({"latency_p90_ms", p.latency_ms(0.90), "ms"});
  char buf[160];
  if (worst_percentile == 99) {
    std::snprintf(buf, sizeof buf, "latency_p99_ms=%.4f ms",
                  p.latency_ms(0.99));
    r.notes.emplace_back(buf);
  }
  std::snprintf(buf, sizeof buf, "latency_samples=%zu windows=%zu",
                p.all_latency_ms().size(), p.windows.size());
  r.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "ops_failed_ratio=%.6f (%llu/%llu)",
                p.attempted ? static_cast<double>(p.failed) /
                                  static_cast<double>(p.attempted)
                            : 0.0,
                static_cast<unsigned long long>(p.failed),
                static_cast<unsigned long long>(p.attempted));
  r.notes.emplace_back(buf);
}

void add_layer_ms(RunResult& r, const std::map<std::string, LayerTotals>& t,
                  const char* metric, const char* span, bool self,
                  double ops) {
  const auto it = t.find(span);
  double ms = 0.0;
  if (it != t.end() && ops > 0) {
    ms = (self ? it->second.self_ms : it->second.total_ms) / ops;
  }
  r.per_layer.push_back({metric, ms, "ms"});
}

void add_residue(RunResult& r, const std::map<std::string, LayerTotals>& t,
                 const std::vector<std::string>& layer_spans,
                 double end_to_end_ms, double ops) {
  double residue = end_to_end_ms;
  for (const std::string& name : layer_spans) {
    const auto it = t.find(name);
    if (it != t.end()) residue -= it->second.self_ms;
  }
  r.per_layer.push_back({"residue_ms", ops > 0 ? residue / ops : 0.0, "ms"});
}

// ---- oracle ----

void LineSet::add(std::string_view line) {
  const std::uint64_t h = datanet::common::hash_bytes(line);
  ++lines;
  bytes += line.size() + 1;  // the '\n' the record carries on disk
  sum += h;
  mix ^= datanet::common::mix64(h + 0x9e3779b97f4a7c15ULL);
}

void LineSet::add_all(std::string_view data) {
  while (!data.empty()) {
    const std::size_t nl = data.find('\n');
    const std::string_view line = data.substr(0, nl);
    if (!line.empty()) add(line);
    if (nl == std::string_view::npos) break;
    data.remove_prefix(nl + 1);
  }
}

void LineSet::merge(const LineSet& o) {
  lines += o.lines;
  bytes += o.bytes;
  sum += o.sum;
  mix ^= o.mix;
}

LineSet reference_filter(std::string_view block, const std::string& key) {
  std::string out;
  (void)datanet::core::filter_lines_decode_all(block, key, out);
  LineSet s;
  s.add_all(out);
  return s;
}

LineSet selected_lines(const datanet::core::SelectionResult& r) {
  LineSet s;
  for (const std::string& node : r.node_local_data) s.add_all(node);
  return s;
}

// ---- key mix ----

std::vector<std::string> cold_keys(std::uint64_t seed, std::uint64_t from_rank,
                                   std::uint64_t num_movies) {
  datanet::common::Rng rng(seed * 0x2545f4914f6cdd1dULL + 7);
  std::vector<std::string> out;
  while (out.size() < kColdPool) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "movie_%05llu",
                  static_cast<unsigned long long>(
                      from_rank + rng.bounded(num_movies - from_rank)));
    if (std::find(out.begin(), out.end(), buf) == out.end()) {
      out.emplace_back(buf);
    }
  }
  return out;
}

KeySchedule::KeySchedule(std::uint64_t seed, std::vector<std::string> hot,
                         std::vector<std::string> cold, std::size_t round_ops,
                         std::size_t round_cold)
    : rng_(seed * 0x9e3779b97f4a7c15ULL + 11),
      hot_(std::move(hot)),
      cold_(std::move(cold)),
      round_cold_(round_cold) {
  const datanet::stats::ZipfSampler zipf(hot_.size(), 1.0);
  const std::size_t slots = round_ops - round_cold;
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t given = 0;
  for (std::size_t k = 0; k < hot_.size(); ++k) {
    const double exact = zipf.probability(k) * static_cast<double>(slots);
    quota_.push_back(static_cast<std::size_t>(exact));
    given += quota_.back();
    remainders.emplace_back(exact - static_cast<double>(quota_.back()), k);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t i = 0; given < slots; ++i, ++given) {
    ++quota_[remainders[i].second];
  }
}

const std::string& KeySchedule::next() {
  if (pos_ == round_.size()) {
    round_.clear();
    for (std::size_t k = 0; k < quota_.size(); ++k) {
      round_.insert(round_.end(), quota_[k], &hot_[k]);
    }
    for (std::size_t j = 0; j < round_cold_; ++j) {
      round_.push_back(&cold_[rng_.bounded(cold_.size())]);
    }
    for (std::size_t i = round_.size(); i > 1; --i) {
      std::swap(round_[i - 1], round_[rng_.bounded(i)]);
    }
    pos_ = 0;
  }
  return *round_[pos_++];
}

// ---- decorators ----

datanet::core::ReplicaRead TimedRead::read(datanet::dfs::BlockId block,
                                           datanet::dfs::NodeId node) {
  const Tracer::Scope span(*tracer_, "dfs.read");
  datanet::core::ReplicaRead r = inner_->read(block, node);
  bytes += r.data.size();
  return r;
}

datanet::scheduler::AssignmentRecord TimedBackend::assign(
    datanet::scheduler::TaskScheduler& sched,
    const datanet::graph::BipartiteGraph& graph,
    const std::vector<std::uint64_t>& block_bytes) {
  const Tracer::Scope span(*tracer_, "scheduler.assign");
  return inner_->assign(sched, graph, block_bytes);
}

datanet::mapred::JobReport TimedBackend::report(
    const std::string& key,
    const std::vector<datanet::mapred::InputSplit>& splits,
    const datanet::core::ExperimentConfig& cfg,
    const std::vector<double>& node_speeds,
    const datanet::mapred::AttemptCounters& attempts) {
  const Tracer::Scope span(*tracer_, "mapred.report");
  return inner_->report(key, splits, cfg, node_speeds, attempts);
}

}  // namespace perfbench
