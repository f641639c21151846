// ingest-recover: writes beside reads on one thread. Each cycle streams a
// movie log through dfs::Ingestor (group commit) into a MiniDfs with an
// attached EditLog, checkpoints an FsImage halfway, and after every few
// sealed blocks queries a few keys through DatasetCache::get (the delta-apply
// path) + server::execute_query. The cycle ends with a NameNode crash at a
// seeded torn journal byte, and MiniDfs::recover of image + journal suffix is
// timed. An op is one such round (append, then query what sealed), or one
// recovery; latency samples are rounds. --seed picks the queried keys and the
// torn byte; the stream and its placement come from a fixed seed, so every
// run ingests the same bytes. The only workload that touches the journal,
// ElasticMap extend and the cache delta path.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <tuple>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dfs/edit_log.hpp"
#include "dfs/fs_image.hpp"
#include "dfs/ingest.hpp"
#include "scheduler/datanet_sched.hpp"
#include "server/dataset_cache.hpp"
#include "server/server.hpp"
#include "workload/movie_gen.hpp"

namespace perfbench {
namespace {

namespace core = datanet::core;
namespace dfs = datanet::dfs;
namespace srv = datanet::server;

constexpr std::uint64_t kStreamBlocks = 24;
constexpr std::uint64_t kMovies = 500;
constexpr std::uint64_t kHot = 8;
constexpr std::uint64_t kColdFrom = 100;  // cold keys: popularity rank >= this
constexpr std::size_t kRoundQueries = 20;  // about one cycle's queries
constexpr std::size_t kRoundCold = 4;
constexpr std::uint64_t kGroupRecords = 64;
constexpr std::uint64_t kQueryEveryBlocks = 4;
constexpr int kQueriesPerRound = 4;
constexpr std::size_t kTailRecords = 128;  // where the seeded tear may land
constexpr int kSetupReps = 15;
const char* const kPath = "/logs/movies.log";

struct Totals {
  std::uint64_t records = 0;
  double append_s = 0.0;
  std::uint64_t group_commits = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t user_bytes = 0;
  std::uint64_t frames_replayed = 0;
  std::uint64_t recoveries = 0;
  srv::DatasetCache::Stats cache;
  std::vector<double> recover_ms;
};

class IngestRecover {
 public:
  explicit IngestRecover(const Options& o) : opt_(o) {
    cfg_.num_nodes = 16;
    cfg_.block_size = 64 * 1024;
    cfg_.replication = 3;
    cfg_.seed = 77;
    std::vector<double> total;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const std::int64_t t0 = now_ns();
      datanet::workload::MovieGenOptions g;
      g.num_movies = kMovies;
      g.num_records = kStreamBlocks * cfg_.block_size / 150;
      g.seed = cfg_.seed * 7919 + 13;
      const datanet::workload::MovieLogGenerator gen(g);
      lines_.clear();
      for (const auto& rec : gen.generate()) {
        lines_.push_back(datanet::workload::encode_record(rec));
      }
      hot_.clear();
      for (std::uint64_t r = 0; r < kHot; ++r) hot_.push_back(gen.movie_key(r));
      total.push_back(seconds_since(t0));
    }
    setup_s_ = median(total);
    std::filesystem::create_directories(o.tmp_dir);
  }

  ~IngestRecover() {
    std::error_code ec;
    std::filesystem::remove_all(opt_.tmp_dir, ec);
  }
  IngestRecover(const IngestRecover&) = delete;
  IngestRecover& operator=(const IngestRecover&) = delete;

  Phase run(double seconds, Tracer& tr, Totals& tot) {
    Phase p;
    datanet::common::Rng rng(opt_.seed * 0x9e3779b97f4a7c15ULL + 5);
    KeySchedule keys(opt_.seed, hot_, cold_keys(opt_.seed, kColdFrom, kMovies),
                     kRoundQueries, kRoundCold);
    std::uint32_t op = 0;
    const std::int64_t start = now_ns();
    // A cycle joins the time window it starts in.
    while (tot.recoveries == 0 || seconds_since(start) < seconds) {
      cycle(p.window(window_of(seconds_since(start), seconds)), p, tr, tot, rng,
            keys, op);
    }
    return p;
  }

  // The decode-everything filter over every sealed block of the file,
  // memoized per (block index, checksum, key).
  LineSet reference(const dfs::MiniDfs& mini, const std::string& key) {
    LineSet s;
    for (const auto bid : mini.blocks_of(kPath)) {
      const auto& info = mini.block(bid);
      const auto k = std::make_tuple(info.index_in_file, info.checksum, key);
      auto it = refs_.find(k);
      if (it == refs_.end()) {
        it = refs_.emplace(k, reference_filter(mini.read_block(bid), key))
                 .first;
      }
      s.merge(it->second);
    }
    return s;
  }

  void cycle(Window& w, Phase& p, Tracer& tr, Totals& tot,
             datanet::common::Rng& rng, KeySchedule& keys, std::uint32_t& op) {
    const std::int64_t c0 = now_ns();
    std::int64_t oracle_ns = 0;
    // Fresh names each cycle, unlinked when it ends: ext4 flushes a file's
    // delayed-allocation pages to disk when it is truncated or renamed over,
    // and that disk traffic would swamp the timings.
    const std::string stem = opt_.tmp_dir + "/" + std::to_string(cycles_++);
    const std::string edits = stem + ".edits";
    const std::string image = stem + ".fsimage";

    dfs::MiniDfs mini(dfs::ClusterTopology::flat(cfg_.num_nodes),
                      core::make_dfs_options(cfg_));
    dfs::EditLog journal(edits);
    mini.attach_edit_log(&journal);
    srv::DatasetCache cache;
    auto ing = std::make_unique<dfs::Ingestor>(
        mini, kPath, dfs::IngestOptions{.group_records = kGroupRecords});
    std::uint64_t sealed = 0;
    ing->on_seal = [&sealed](dfs::BlockId) { ++sealed; };

    const std::size_t n = lines_.size();
    const std::size_t tail = n - kTailRecords;
    std::uint64_t next_query = kQueryEveryBlocks;
    bool checkpointed = false;
    // (journal offset, namespace digest) at every journal boundary in the
    // tail: the committed states a torn journal may recover to.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> history;
    const auto record_boundary = [&] {
      const std::int64_t t = now_ns();
      if (history.empty() || journal.bytes_written() != history.back().first) {
        history.emplace_back(journal.bytes_written(), mini.namespace_digest());
      }
      oracle_ns += now_ns() - t;
    };

    std::size_t i = 0;
    while (i < n) {
      // One op: append until the next kQueryEveryBlocks blocks seal, then
      // query the grown file. Its latency is what a reader waiting for fresh
      // data sees, first append to last answer, oracle work excluded.
      tr.set_op(op++);
      const std::int64_t r0 = now_ns();
      const std::int64_t oracle_before = oracle_ns;
      bool complete = false;
      bool ok = true;
      {
        const Tracer::Scope round(tr, "round");
        while (i < n && sealed < next_query) {
          // Whole groups before the tail; single records inside it, so
          // every journal boundary there is observed.
          const std::size_t end =
              i < tail ? std::min(tail, i + kGroupRecords) : i + 1;
          {
            const Tracer::Scope a(tr, "dfs.append");
            const std::int64_t t = now_ns();
            for (; i < end; ++i) ing->append(lines_[i]);
            tot.append_s += seconds_since(t);
          }
          if (i >= tail) record_boundary();
        }
        if (sealed >= next_query) {
          complete = true;
          next_query += kQueryEveryBlocks;
          for (int q = 0; q < kQueriesPerRound; ++q) {
            ok = query(tr, mini, cache, keys.next(), oracle_ns) && ok;
          }
        }
      }
      if (complete) {
        ++p.attempted;
        if (ok) {
          ++w.ok_ops;
          w.latency_ms.push_back(
              static_cast<double>(now_ns() - r0 - (oracle_ns - oracle_before)) /
              1e6);
        } else {
          ++p.failed;
        }
      }
      if (!checkpointed && i >= n / 2) {
        const Tracer::Scope c(tr, "dfs.checkpoint");
        dfs::FsImage::save(mini, image);
        checkpointed = true;
      }
    }
    {
      const Tracer::Scope a(tr, "dfs.append");
      const std::int64_t t = now_ns();
      ing->flush();  // the tail group becomes durable; its block stays open
      tot.append_s += seconds_since(t);
    }
    record_boundary();
    tot.records += n;
    tot.group_commits += ing->stats().group_commits;
    tot.journal_bytes += journal.bytes_written();
    for (std::size_t k = 0; k < n; ++k) tot.user_bytes += lines_[k].size() + 1;

    // NameNode crash torn inside the first frame written after a seeded
    // boundary of the tail: recovery must land exactly on that boundary.
    std::uint64_t keep = history.back().first;
    std::uint64_t expected = history.back().second;
    if (history.size() > 1) {
      const std::int64_t t = now_ns();
      const auto ends = dfs::EditLog::replay(edits).frame_ends;
      oracle_ns += now_ns() - t;
      const auto& [at, digest] = history[rng.bounded(history.size() - 1)];
      const std::uint64_t next =
          *std::upper_bound(ends.begin(), ends.end(), at);
      keep = at + rng.bounded(next - at);
      expected = digest;
    }
    mini.crash_namenode(keep);
    ing.reset();  // the dead writer; the journal is already detached

    tr.set_op(op++);
    dfs::RecoveryInfo info;
    std::optional<dfs::MiniDfs> recovered;
    const std::int64_t t0 = now_ns();
    {
      const Tracer::Scope s(tr, "dfs.recover");
      recovered.emplace(dfs::MiniDfs::recover(image, edits, &info));
    }
    const std::int64_t t1 = now_ns();
    tot.recover_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    const std::uint64_t digest = recovered->namespace_digest();
    recovered.reset();
    std::filesystem::remove(edits);
    std::filesystem::remove(image);
    oracle_ns += now_ns() - t1;
    ++p.attempted;
    ++tot.recoveries;
    tot.frames_replayed += info.replayed_frames;
    if (digest != expected) {
      ++p.failed;
    } else {
      ++w.ok_ops;
    }
    const auto cs = cache.stats();
    tot.cache.hits += cs.hits;
    tot.cache.revalidations += cs.revalidations;
    tot.cache.rebuilds += cs.rebuilds;
    tot.cache.delta_applies += cs.delta_applies;
    w.busy_s += static_cast<double>(now_ns() - c0 - oracle_ns) / 1e9;
  }

  // One served query, checked; the checking time goes to `oracle_ns`.
  bool query(Tracer& tr, dfs::MiniDfs& mini, srv::DatasetCache& cache,
             const std::string& key, std::int64_t& oracle_ns) {
    srv::QueryRequest req;
    req.tenant = "ingest";
    req.key = key;
    const std::int64_t b0 = now_ns();
    const auto before = cache.stats();
    oracle_ns += now_ns() - b0;
    std::shared_ptr<const core::DataNet> net;
    srv::QueryOutcome out;
    std::int64_t g0 = 0, g1 = 0;
    std::int32_t q = -1;
    {
      const Tracer::Scope span(tr, "query");
      q = span.index();
      g0 = now_ns();
      net = cache.get(mini, kPath);
      g1 = now_ns();
      const Tracer::Scope e(tr, "server.execute_query");
      out = srv::execute_query(mini, kPath, net.get(), req, cfg_);
    }
    const std::int64_t t1 = now_ns();
    const auto after = cache.stats();
    tr.add(after.delta_applies > before.delta_applies ? "elasticmap.delta_apply"
           : after.rebuilds > before.rebuilds         ? "elasticmap.build"
                                                      : "server.cache_get",
           g0, g1, q);

    // Oracle: the same selection in-process must reproduce the served
    // digest, and its lines must equal the exact filter.
    core::DirectReadPolicy read(mini, cfg_.remote_read_penalty);
    core::NoFaults faults;
    core::CostOnlyBackend timing;
    datanet::scheduler::DataNetScheduler sched;
    core::ExperimentConfig qcfg = cfg_;
    qcfg.execution_threads = 1;
    const core::SelectionResult sel =
        core::SelectionRuntime(read, faults, timing)
            .run(mini, kPath, key, sched, net.get(), qcfg);
    const LineSet want = reference(mini, key);
    const bool ok = out.ok && srv::selection_digest(sel) == out.reply.digest &&
                    selected_lines(sel) == want &&
                    out.reply.matched_bytes == want.bytes;
    oracle_ns += now_ns() - t1;
    return ok;
  }

  const Options& opt_;
  core::ExperimentConfig cfg_;
  std::vector<std::string> lines_;
  std::vector<std::string> hot_;  // the kHot most popular movies
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::string>, LineSet>
      refs_;
  std::uint64_t cycles_ = 0;
  double setup_s_ = 0;
};

}  // namespace

RunResult run_ingest_recover(const Options& o) {
  IngestRecover w(o);
  RunResult r;
  Tracer off(false);
  Totals base_tot;
  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  const Phase base = w.run(untraced_s, off, base_tot);
  r.attempted = base.attempted;
  r.failed = base.failed;
  add_common_metrics(r, base, w.setup_s_, 90);
  char buf[160];
  std::snprintf(buf, sizeof buf, "ingest_records_per_s=%.1f 1/s",
                base_tot.append_s > 0
                    ? static_cast<double>(base_tot.records) / base_tot.append_s
                    : 0.0);
  r.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "recover_ms=%.4f ms (samples=%zu)",
                median(base_tot.recover_ms), base_tot.recover_ms.size());
  r.notes.emplace_back(buf);
  r.notes.emplace_back(
      "execution_threads=1 server_workers=0 client_connections=1");
  r.per_layer = {{"setup.dataset_ms", w.setup_s_ * 1e3, "ms"},
                 {"setup.elasticmap_build_ms", 0.0, "ms"},
                 {"setup.server_start_ms", 0.0, "ms"}};
  if (!o.trace) return r;

  Tracer tr(true);
  Totals tot;
  const Phase traced = w.run(o.seconds / 2, tr, tot);
  r.attempted += traced.attempted;
  r.failed += traced.failed;
  const auto totals = aggregate({&tr});
  const double ops = static_cast<double>(traced.attempted);
  add_layer_ms(r, totals, "dfs.append_ms", "dfs.append", true, ops);
  r.per_layer.push_back(
      {"dfs.group_commits", static_cast<double>(tot.group_commits) / ops,
       "count"});
  r.per_layer.push_back({"dfs.journal_bytes_per_user_byte",
                         static_cast<double>(tot.journal_bytes) /
                             static_cast<double>(tot.user_bytes),
                         "ratio"});
  add_layer_ms(r, totals, "elasticmap.delta_apply_ms", "elasticmap.delta_apply",
               true, ops);
  add_layer_ms(r, totals, "elasticmap.build_ms", "elasticmap.build", true, ops);
  add_layer_ms(r, totals, "server.cache_get_ms", "server.cache_get", true, ops);
  add_layer_ms(r, totals, "server.execute_query_ms", "server.execute_query",
               true, ops);
  r.per_layer.push_back({"server.cache_delta_applies",
                         static_cast<double>(tot.cache.delta_applies) / ops,
                         "count"});
  r.per_layer.push_back({"server.cache_rebuilds",
                         static_cast<double>(tot.cache.rebuilds) / ops,
                         "count"});
  const double lookups =
      static_cast<double>(tot.cache.hits + tot.cache.revalidations +
                          tot.cache.rebuilds + tot.cache.delta_applies);
  r.per_layer.push_back(
      {"server.cache_hit_ratio",
       lookups > 0 ? static_cast<double>(tot.cache.hits) / lookups : 0.0,
       "ratio"});
  add_layer_ms(r, totals, "dfs.checkpoint_ms", "dfs.checkpoint", true, ops);
  add_layer_ms(r, totals, "dfs.recover_ms", "dfs.recover", true, ops);
  r.per_layer.push_back({"dfs.recover_frames_replayed",
                         static_cast<double>(tot.frames_replayed) /
                             static_cast<double>(tot.recoveries),
                         "count"});
  add_residue(r, totals,
              {"dfs.append", "elasticmap.delta_apply", "elasticmap.build",
               "server.cache_get", "server.execute_query", "dfs.checkpoint",
               "dfs.recover"},
              traced.busy_s() * 1e3, ops);
  r.per_layer.push_back({"trace.overhead_p50_ms",
                         traced.latency_ms(0.5) - base.latency_ms(0.5), "ms"});
  if (!o.spans_out.empty()) write_spans({&tr}, o.spans_out);
  return r;
}

}  // namespace perfbench
