// serve-small: an in-process datanetd on loopback hosting a small dataset
// (32 x 64 KiB blocks), driven closed-loop by one server::Client connection
// per core. Each query moves kilobytes, so the fixed per-query costs
// dominate: frame codec, admission and DRR dispatch, DatasetCache::get,
// scheduling_graph and pull_assign. CostOnlyBackend skips mapred.
//
// The traced run decomposes each round trip from the client side: queue and
// service come from the reply fields, wire = rtt - service - queue, the
// codec is re-timed directly, and service is split by replaying the same
// query in-process through the timed runtime seams.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "datanet/datanet.hpp"
#include "scheduler/datanet_sched.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace perfbench {
namespace {

namespace core = datanet::core;
namespace srv = datanet::server;

constexpr std::uint64_t kBlocks = 32;
constexpr int kSetupReps = 9;
constexpr std::uint64_t kMovies = 2000;  // make_movie_dataset's default
constexpr std::uint64_t kColdFrom = 500;  // cold keys: popularity rank >= this
constexpr std::size_t kRoundOps = 50;
constexpr std::size_t kRoundCold = 10;

// Connections and selection workers: one per core each. Keeping the cores
// busy measured steadier than leaving them idle, where every hand-off waits
// for a sleeping core to wake.
unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

srv::ServerOptions server_options() {
  srv::ServerOptions opts;
  opts.workers = nproc();
  opts.default_limits = {.max_queue = 256, .max_inflight = 16, .weight = 1};
  opts.cfg.num_nodes = 16;
  opts.cfg.block_size = 64 * 1024;
  opts.cfg.replication = 3;
  opts.cfg.seed = 42;
  opts.dataset_blocks = kBlocks;
  return opts;
}

struct Golden {
  std::uint64_t digest = 0;
  std::uint64_t matched_bytes = 0;
};

// Frame + message encode/decode of one request and its reply, as both ends
// of the connection do it.
void codec_round(const srv::QueryRequest& req, const srv::QueryReply& reply) {
  for (const std::string& payload :
       {srv::encode_query(req), srv::encode_query_ok(reply)}) {
    const std::string framed = srv::frame(payload);
    const auto header = srv::decode_frame_header(
        std::string_view(framed).substr(0, srv::kFrameHeaderBytes));
    const std::string_view body =
        std::string_view(framed).substr(srv::kFrameHeaderBytes);
    srv::check_frame_payload(header, body);
    if (srv::peek_type(body) == srv::MsgType::kQuery) {
      (void)srv::decode_query(body);
    } else {
      (void)srv::decode_query_ok(body);
    }
  }
}

class ServeSmall {
 public:
  explicit ServeSmall(const Options& o) : opt_(o), opts_(server_options()) {
    std::vector<double> total, dataset, start, emap;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      server_.reset();  // ~Server drains and joins
      const std::int64_t t0 = now_ns();
      server_ = std::make_unique<srv::Server>(opts_);
      const std::int64_t t1 = now_ns();
      server_->start();
      const std::int64_t t2 = now_ns();
      {
        // First query on a cold cache: builds the hosted ElasticMap.
        srv::Client warm(server_->port(), 10'000);
        srv::QueryRequest req;
        req.tenant = "warmup";
        req.key = server_->dataset().hot_keys.front();
        if (!warm.query(req).ok()) throw std::runtime_error("warm-up failed");
      }
      const std::int64_t t3 = now_ns();
      dataset.push_back(static_cast<double>(t1 - t0) / 1e6);
      start.push_back(static_cast<double>(t2 - t1) / 1e6);
      emap.push_back(static_cast<double>(t3 - t2) / 1e6);
      total.push_back(static_cast<double>(t3 - t0) / 1e9);
    }
    setup_s_ = median(total);
    setup_dataset_ms_ = median(dataset);
    setup_start_ms_ = median(start);
    setup_emap_ms_ = median(emap);

    // Golden digests from the in-process path over an identical local
    // build of the hosted dataset (local_query's recipe, built once).
    local_ = core::make_movie_dataset(opts_.cfg, kBlocks);
    local_net_ = std::make_unique<core::DataNet>(*local_.dfs, local_.path);
    hot_ = local_.hot_keys;
    cold_ = cold_keys(o.seed, kColdFrom, kMovies);
    for (const auto* keys : {&hot_, &cold_}) {
      for (const std::string& key : *keys) {
        srv::QueryRequest req;
        req.tenant = "golden";
        req.key = key;
        const auto out = srv::execute_query(*local_.dfs, local_.path,
                                            local_net_.get(), req, opts_.cfg);
        if (!out.ok) throw std::runtime_error("golden query failed: " + key);
        golden_[key] = {out.reply.digest, out.reply.matched_bytes};
      }
    }
  }

  struct ClientState {
    explicit ClientState(bool traced) : tracer(traced) {}
    Tracer tracer;
    Phase phase;
    std::uint64_t read_bytes = 0;
    std::uint64_t matched_bytes = 0;
  };

  // Closed loop: each connection sends its next query when the previous
  // reply arrives, until `seconds` have passed.
  Phase run(double seconds, bool traced,
            std::vector<std::unique_ptr<ClientState>>& clients) {
    clients.clear();
    const unsigned n = nproc();
    for (unsigned c = 0; c < n; ++c) {
      clients.push_back(std::make_unique<ClientState>(traced));
    }
    const std::int64_t start = now_ns();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < n; ++c) {
      threads.emplace_back(
          [&, c] { client_loop(c, start, seconds, *clients[c]); });
    }
    for (auto& t : threads) t.join();
    Phase p;
    p.window(kWindows - 1);
    for (auto& w : p.windows) w.busy_s = seconds / kWindows;
    for (const auto& cs : clients) {
      for (std::size_t i = 0; i < cs->phase.windows.size(); ++i) {
        const Window& from = cs->phase.windows[i];
        Window& to = p.window(i);
        to.latency_ms.insert(to.latency_ms.end(), from.latency_ms.begin(),
                             from.latency_ms.end());
        to.ok_ops += from.ok_ops;
      }
      p.attempted += cs->phase.attempted;
      p.failed += cs->phase.failed;
    }
    return p;
  }

  void client_loop(unsigned c, std::int64_t start, double seconds,
                   ClientState& cs) {
    Tracer& tr = cs.tracer;
    // Replay seams for the traced split of service time.
    core::DirectReadPolicy direct(*local_.dfs, opts_.cfg.remote_read_penalty);
    core::NoFaults faults;
    core::CostOnlyBackend cost_only;
    TimedRead read(direct, tr);
    TimedBackend timing(cost_only, tr);
    const core::SelectionRuntime runtime(read, faults, timing);
    core::ExperimentConfig qcfg = opts_.cfg;
    qcfg.execution_threads = 1;  // as execute_query runs it

    KeySchedule keys(opt_.seed * 31 + c, hot_, cold_, kRoundOps, kRoundCold);
    auto client = std::make_unique<srv::Client>(server_->port(), 10'000);
    std::uint32_t op = 0;
    while (seconds_since(start) < seconds) {
      srv::QueryRequest req;
      req.tenant = "tenant_" + std::to_string(c);
      req.key = keys.next();
      const Golden& want = golden_.at(req.key);
      tr.set_op(op++);
      srv::ClientResult res;
      bool transport_ok = true;
      const std::int64_t t0 = now_ns();
      try {
        res = client->query(req);
      } catch (const std::exception&) {
        transport_ok = false;
      }
      const std::int64_t t1 = now_ns();
      ++cs.phase.attempted;
      if (!transport_ok) {
        ++cs.phase.failed;
        client = std::make_unique<srv::Client>(server_->port(), 10'000);
        continue;
      }
      if (!res.ok() || res.reply.digest != want.digest ||
          res.reply.matched_bytes != want.matched_bytes) {
        ++cs.phase.failed;
        continue;
      }
      Window& w = cs.phase.window(
          window_of(static_cast<double>(t1 - start) / 1e9, seconds));
      ++w.ok_ops;
      w.latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      if (!tr.enabled()) continue;

      const std::int64_t q_ns =
          static_cast<std::int64_t>(res.reply.queue_micros) * 1000;
      const std::int64_t s_ns =
          static_cast<std::int64_t>(res.reply.service_micros) * 1000;
      const std::int32_t root = tr.add("server.rtt", t0, t1, -1);
      tr.add("server.queue", t0, t0 + q_ns, root);
      const std::int32_t svc =
          tr.add("server.service", t0 + q_ns, t0 + q_ns + s_ns, root);
      const std::int32_t wire = tr.add(
          "server.wire", std::min(t1, t0 + q_ns + s_ns), t1, root);
      const std::int64_t c0 = now_ns();
      codec_round(req, res.reply);
      const std::int64_t c1 = now_ns();
      tr.add("server.codec", c0, c1, wire);
      tr.reopen(svc);
      {
        datanet::scheduler::DataNetScheduler sched;
        datanet::graph::BipartiteGraph graph = [&] {
          const Tracer::Scope g(tr, "datanet.graph");
          return local_net_->scheduling_graph(req.key);
        }();
        const Tracer::Scope m(tr, "datanet.materialize");
        const core::SelectionResult sel =
            runtime.run_graph(*local_.dfs, graph, req.key, sched, qcfg);
        for (const auto b : sel.node_filtered_bytes) cs.matched_bytes += b;
      }
      tr.reopen(-1);
    }
    cs.read_bytes = read.bytes;
  }

  const Options& opt_;
  srv::ServerOptions opts_;
  std::unique_ptr<srv::Server> server_;
  core::StoredDataset local_;
  std::unique_ptr<core::DataNet> local_net_;
  std::vector<std::string> hot_, cold_;
  std::map<std::string, Golden> golden_;
  double setup_s_ = 0, setup_dataset_ms_ = 0, setup_start_ms_ = 0,
         setup_emap_ms_ = 0;
};

}  // namespace

RunResult run_serve_small(const Options& o) {
  ServeSmall w(o);
  RunResult r;
  std::vector<std::unique_ptr<ServeSmall::ClientState>> clients;
  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  const Phase base = w.run(untraced_s, false, clients);
  r.attempted = base.attempted;
  r.failed = base.failed;
  add_common_metrics(r, base, w.setup_s_, 99);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "execution_threads=1 server_workers=%u client_connections=%u",
                w.opts_.workers, nproc());
  r.notes.emplace_back(buf);
  r.per_layer = {{"setup.dataset_ms", w.setup_dataset_ms_, "ms"},
                 {"setup.elasticmap_build_ms", w.setup_emap_ms_, "ms"},
                 {"setup.server_start_ms", w.setup_start_ms_, "ms"}};
  if (!o.trace) return r;

  const Phase traced = w.run(o.seconds / 2, true, clients);
  r.attempted += traced.attempted;
  r.failed += traced.failed;
  std::vector<const Tracer*> tracers;
  std::uint64_t read_bytes = 0, matched_bytes = 0;
  for (const auto& cs : clients) {
    tracers.push_back(&cs->tracer);
    read_bytes += cs->read_bytes;
    matched_bytes += cs->matched_bytes;
  }
  const auto totals = aggregate(tracers);
  const std::vector<double> rtts = traced.all_latency_ms();
  const double ops = static_cast<double>(rtts.size());
  add_layer_ms(r, totals, "server.rtt_ms", "server.rtt", false, ops);
  add_layer_ms(r, totals, "server.service_ms", "server.service", false, ops);
  add_layer_ms(r, totals, "server.queue_ms", "server.queue", false, ops);
  add_layer_ms(r, totals, "server.wire_ms", "server.wire", false, ops);
  const auto codec = totals.find("server.codec");
  r.per_layer.push_back(
      {"server.codec_us",
       codec != totals.end() && ops > 0 ? codec->second.total_ms * 1e3 / ops
                                        : 0.0,
       "us"});
  const auto cache = w.server_->cache().stats();
  const double lookups = static_cast<double>(
      cache.hits + cache.revalidations + cache.rebuilds + cache.delta_applies);
  r.per_layer.push_back(
      {"server.cache_hit_ratio",
       lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0, "ratio"});
  add_layer_ms(r, totals, "datanet.graph_ms", "datanet.graph", true, ops);
  add_layer_ms(r, totals, "scheduler.assign_ms", "scheduler.assign", true, ops);
  add_layer_ms(r, totals, "dfs.read_ms", "dfs.read", true, ops);
  r.per_layer.push_back(
      {"dfs.read_bytes", ops > 0 ? static_cast<double>(read_bytes) / ops : 0.0,
       "bytes"});
  add_layer_ms(r, totals, "datanet.materialize_self_ms", "datanet.materialize",
               true, ops);
  add_layer_ms(r, totals, "mapred.report_ms", "mapred.report", true, ops);
  r.per_layer.push_back({"datanet.useful_bytes_ratio",
                         read_bytes ? static_cast<double>(matched_bytes) /
                                          static_cast<double>(read_bytes)
                                    : 0.0,
                         "ratio"});
  // Layers sum to the round trip: queue + wire (codec inside) + the
  // replayed service split; the service time the replay cannot explain
  // (scheduler construction, digest, cache lookup, dispatch) is residue.
  add_residue(r, totals,
              {"server.queue", "server.wire", "server.codec", "datanet.graph",
               "scheduler.assign", "dfs.read", "datanet.materialize",
               "mapred.report"},
              std::accumulate(rtts.begin(), rtts.end(), 0.0), ops);
  r.per_layer.push_back({"trace.overhead_p50_ms",
                         traced.latency_ms(0.5) - base.latency_ms(0.5), "ms"});
  if (!o.spans_out.empty()) write_spans(tracers, o.spans_out);
  return r;
}

}  // namespace perfbench
