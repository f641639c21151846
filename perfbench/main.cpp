// DataNet benchmark entry point: runs one seeded workload against the public
// API in this process, checks every answer, prints every metric by name and
// unit, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 splits the run into an
// untraced and a traced half and reports the per-layer metrics.
//
//   perfbench --workload select-scan|serve-small|ingest-recover --seed N
//             --seconds S --trace 0|1 [--spans-out FILE] [--tmp-dir DIR]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/simd_scan.hpp"

namespace {

using perfbench::Metric;

// Every per-layer metric, in print order; a workload that does not touch a
// layer reports it as 0.
const Metric kPerLayer[] = {
    {"setup.dataset_ms", 0, "ms"},
    {"setup.elasticmap_build_ms", 0, "ms"},
    {"setup.server_start_ms", 0, "ms"},
    {"dfs.read_ms", 0, "ms"},
    {"dfs.read_bytes", 0, "bytes"},
    {"datanet.graph_ms", 0, "ms"},
    {"scheduler.assign_ms", 0, "ms"},
    {"datanet.materialize_self_ms", 0, "ms"},
    {"mapred.report_ms", 0, "ms"},
    {"mapred.analysis_ms", 0, "ms"},
    {"datanet.useful_bytes_ratio", 0, "ratio"},
    {"server.rtt_ms", 0, "ms"},
    {"server.service_ms", 0, "ms"},
    {"server.queue_ms", 0, "ms"},
    {"server.wire_ms", 0, "ms"},
    {"server.codec_us", 0, "us"},
    {"server.cache_hit_ratio", 0, "ratio"},
    {"server.cache_get_ms", 0, "ms"},
    {"server.execute_query_ms", 0, "ms"},
    {"server.cache_delta_applies", 0, "count"},
    {"server.cache_rebuilds", 0, "count"},
    {"elasticmap.delta_apply_ms", 0, "ms"},
    {"elasticmap.build_ms", 0, "ms"},
    {"dfs.append_ms", 0, "ms"},
    {"dfs.group_commits", 0, "count"},
    {"dfs.journal_bytes_per_user_byte", 0, "ratio"},
    {"dfs.checkpoint_ms", 0, "ms"},
    {"dfs.recover_ms", 0, "ms"},
    {"dfs.recover_frames_replayed", 0, "count"},
    {"residue_ms", 0, "ms"},
    {"trace.overhead_p50_ms", 0, "ms"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "select-scan|serve-small|ingest-recover --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE] [--tmp-dir DIR]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  o.tmp_dir = "perfbench-tmp";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = v == "1";
    } else if (flag == "--spans-out") {
      o.spans_out = v;
    } else if (flag == "--tmp-dir") {
      o.tmp_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options o = parse(argc, argv);
  perfbench::RunResult r;
  try {
    if (o.workload == "select-scan") {
      r = perfbench::run_select_scan(o);
    } else if (o.workload == "serve-small") {
      r = perfbench::run_serve_small(o);
    } else if (o.workload == "ingest-recover") {
      r = perfbench::run_ingest_recover(o);
    } else {
      usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 2;
  }

  namespace dc = datanet::common;
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("host nproc=%u simd_scan=%s\n",
              std::thread::hardware_concurrency(),
              dc::scan_kernel_name(dc::active_scan_kernel()));
  for (const auto& note : r.notes) std::printf("%s\n", note.c_str());
  for (const auto& m : r.end_to_end) {
    std::printf("end_to_end %s=%.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::vector<Metric> layers;
  if (o.trace) {
    for (Metric m : kPerLayer) {
      for (const auto& got : r.per_layer) {
        if (got.name == m.name) m.value = got.value;
      }
      layers.push_back(m);
      std::printf("per_layer %s=%.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  const bool correct = r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const auto& out = o.trace ? layers : r.end_to_end;
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", out[i].name.c_str(),
                finite_or_zero(out[i].value), out[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
