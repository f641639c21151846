#include "cli/commands.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <memory>
#include <random>
#include <span>

#include "apps/distinct_users.hpp"
#include "apps/histogram.hpp"
#include "apps/moving_average.hpp"
#include "apps/sessionize.hpp"
#include "apps/topk_search.hpp"
#include "apps/word_count.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "datanet/datanet.hpp"
#include "datanet/experiment.hpp"
#include "datanet/selection_runtime.hpp"
#include "dfs/edit_log.hpp"
#include "dfs/fault_injector.hpp"
#include "dfs/fs_image.hpp"
#include "dfs/fsck.hpp"
#include "dfs/ingest.hpp"
#include "dfs/meta_plane.hpp"
#include "dfs/replication_monitor.hpp"
#include "elasticmap/live_map.hpp"
#include "scheduler/datanet_sched.hpp"
#include "scheduler/locality.hpp"
#include "mapred/report_json.hpp"
#include "sim/job_sim.hpp"
#include "sim/selection_sim.hpp"
#include "stats/concentration.hpp"
#include "stats/fit.hpp"
#include "stats/gamma.hpp"
#include "stats/goodness_of_fit.hpp"
#include "workload/dataset.hpp"
#include "workload/github_gen.hpp"
#include "workload/io.hpp"
#include "workload/movie_gen.hpp"
#include "workload/worldcup_gen.hpp"

namespace datanet::cli {

namespace {

int fail(std::ostream& out, const std::string& message) {
  out << "error: " << message << "\n";
  return 1;
}

int warn_unused(const Args& args, std::ostream& out) {
  for (const auto& flag : args.unused_flags()) {
    out << "warning: unknown flag --" << flag << " ignored\n";
  }
  return 0;
}

std::vector<workload::Record> generate_records(const std::string& type,
                                               std::uint64_t records,
                                               std::uint64_t seed) {
  if (type == "movie") {
    workload::MovieGenOptions o;
    o.num_records = records;
    o.seed = seed;
    return workload::MovieLogGenerator(o).generate();
  }
  if (type == "github") {
    workload::GithubGenOptions o;
    o.num_records = records;
    o.seed = seed;
    return workload::GithubLogGenerator(o).generate();
  }
  if (type == "worldcup") {
    workload::WorldCupGenOptions o;
    o.num_records = records;
    o.seed = seed;
    return workload::WorldCupLogGenerator(o).generate();
  }
  throw std::invalid_argument("unknown --type '" + type +
                              "' (movie|github|worldcup)");
}

// Concatenated committed bytes of `path` in block order: sealed blocks in
// file order, then the open (unsealed) block if ingestion left one.
std::string file_content(const dfs::MiniDfs& fs, const std::string& path) {
  std::string content;
  for (const dfs::BlockId b : fs.blocks_of(path)) {
    content.append(fs.read_block(b));
  }
  for (const auto& open : fs.open_blocks()) {
    if (open.file == path) content.append(fs.read_block(open.id));
  }
  return content;
}

mapred::Job make_job(const std::string& name, const Args& args) {
  if (name == "wordcount") return apps::make_word_count_job();
  if (name == "histogram") return apps::make_word_histogram_job();
  if (name == "movingavg") {
    return apps::make_moving_average_job(args.get_u64_or("window", 86400));
  }
  if (name == "topk") {
    return apps::make_topk_search_job(args.get_or("query", "search text"),
                                      static_cast<std::uint32_t>(
                                          args.get_u64_or("k", 10)));
  }
  if (name == "sessionize") {
    return apps::make_sessionize_job(args.get_or("field", "client="),
                                     args.get_u64_or("gap", 1800));
  }
  if (name == "distinct") {
    return apps::make_distinct_users_job(args.get_or("field", "client="));
  }
  throw std::invalid_argument(
      "unknown --job '" + name +
      "' (wordcount|histogram|movingavg|topk|sessionize|distinct)");
}

}  // namespace

int cmd_generate(const Args& args, std::ostream& out) {
  const auto file = args.get("out");
  if (!file) return fail(out, "generate requires --out FILE");
  const auto type = args.get_or("type", "movie");
  const auto records = args.get_u64_or("records", 100000);
  const auto seed = args.get_u64_or("seed", 42);
  try {
    const auto recs = generate_records(type, records, seed);
    const auto bytes = workload::save_records(*file, recs);
    out << "wrote " << recs.size() << " " << type << " records ("
        << common::format_bytes(bytes) << ") to " << *file << "\n";
  } catch (const std::exception& e) {
    return fail(out, e.what());
  }
  warn_unused(args, out);
  return 0;
}

int cmd_inspect(const Args& args, std::ostream& out) {
  const auto file = args.get("in");
  if (!file) return fail(out, "inspect requires --in FILE");
  const auto top = args.get_u64_or("top", 10);
  try {
    workload::LoadStats stats;
    const auto records = workload::load_records(*file, &stats);
    if (records.empty()) return fail(out, "no valid records in " + *file);

    std::map<std::string, std::uint64_t> key_bytes;
    std::uint64_t total = 0;
    for (const auto& r : records) {
      const auto sz = workload::encode_record(r).size() + 1;
      key_bytes[r.key] += sz;
      total += sz;
    }
    out << *file << ": " << records.size() << " records ("
        << stats.skipped << " malformed skipped), "
        << common::format_bytes(total) << ", " << key_bytes.size()
        << " sub-datasets\n\n";

    std::vector<std::pair<std::uint64_t, std::string>> ranked;
    for (const auto& [key, bytes] : key_bytes) ranked.emplace_back(bytes, key);
    std::sort(ranked.rbegin(), ranked.rend());

    common::TextTable table({"rank", "sub-dataset", "bytes", "share"});
    for (std::size_t i = 0; i < std::min<std::size_t>(top, ranked.size()); ++i) {
      table.add_row({std::to_string(i + 1), ranked[i].second,
                     common::format_bytes(ranked[i].first),
                     common::fmt_percent(static_cast<double>(ranked[i].first) /
                                         static_cast<double>(total))});
    }
    out << table.to_string() << "\n";

    // Fit the Section II-B Gamma model to per-sub-dataset sizes (KiB) and
    // quantify the concentration of the collection.
    std::vector<double> sizes;
    sizes.reserve(ranked.size());
    for (const auto& [bytes, _] : ranked) {
      sizes.push_back(static_cast<double>(bytes) / 1024.0);
    }
    if (sizes.size() >= 2) {
      const auto mom = stats::fit_gamma_moments(sizes);
      const auto mle = stats::fit_gamma_mle(sizes);
      out << "Gamma fit of sub-dataset sizes (KiB): moments k=" << mom.shape
          << " theta=" << mom.scale << "; MLE k=" << mle.shape
          << " theta=" << mle.scale << " (" << mle.iterations
          << " Newton steps)\n";
      out << "concentration: gini=" << common::fmt_double(stats::gini(sizes), 3)
          << ", normalized entropy="
          << common::fmt_double(stats::normalized_entropy(sizes), 3) << "\n";
    }
  } catch (const std::exception& e) {
    return fail(out, e.what());
  }
  warn_unused(args, out);
  return 0;
}

int cmd_analyze(const Args& args, std::ostream& out) {
  const auto file = args.get("in");
  if (!file) return fail(out, "analyze requires --in FILE");
  const auto key = args.get("key");
  if (!key) return fail(out, "analyze requires --key SUBDATASET");
  try {
    core::ExperimentConfig cfg;
    cfg.num_nodes = static_cast<std::uint32_t>(args.get_u64_or("nodes", 16));
    cfg.block_size = args.get_u64_or("block-size", 128 * 1024);
    cfg.seed = args.get_u64_or("seed", 42);

    dfs::DfsOptions dopt;
    dopt.block_size = cfg.block_size;
    dopt.replication = cfg.replication;
    dopt.seed = cfg.seed;
    dfs::MiniDfs fs(dfs::ClusterTopology::flat(cfg.num_nodes), dopt);
    workload::LoadStats stats;
    const auto blocks = workload::ingest_file(fs, "/data", *file, &stats);
    out << "ingested " << stats.loaded << " records into " << blocks
        << " blocks (" << stats.skipped << " malformed skipped)\n";

    const double alpha = args.get_double_or("alpha", 0.3);
    const core::DataNet net(fs, "/data", {.alpha = alpha});
    out << "ElasticMap: " << common::format_bytes(net.meta().memory_bytes())
        << " for " << common::format_bytes(net.meta().raw_bytes())
        << " of raw data; '" << *key << "' estimated at "
        << common::format_bytes(net.estimate_total_size(*key)) << " across "
        << net.distribution(*key).size() << " candidate blocks\n";

    const auto job = make_job(args.get_or("job", "wordcount"), args);
    scheduler::LocalityScheduler base(7);
    const auto without =
        core::run_end_to_end(fs, "/data", *key, base, nullptr, job, cfg);
    scheduler::DataNetScheduler dn;
    const auto with = core::run_end_to_end(fs, "/data", *key, dn, &net, job, cfg);

    common::TextTable table({"scheduler", "selection (s)", "analysis (s)",
                             "total (s)", "output keys"});
    table.add_row({"locality",
                   common::fmt_double(without.selection.report.total_seconds, 1),
                   common::fmt_double(without.analysis.total_seconds, 1),
                   common::fmt_double(without.total_seconds(), 1),
                   std::to_string(without.analysis.output.size())});
    table.add_row({"datanet",
                   common::fmt_double(with.selection.report.total_seconds, 1),
                   common::fmt_double(with.analysis.total_seconds, 1),
                   common::fmt_double(with.total_seconds(), 1),
                   std::to_string(with.analysis.output.size())});
    out << "\n" << table.to_string();
    out << "\nimprovement: "
        << common::fmt_percent(1.0 - with.total_seconds() / without.total_seconds())
        << "\n";
    if (args.has("show-output")) {
      std::size_t shown = 0;
      for (const auto& [k, v] : with.analysis.output) {
        out << "  " << k << " -> " << v << "\n";
        if (++shown >= 20) break;
      }
    }
    if (args.has("json")) {
      out << "\n"
          << mapred::report_to_json(with.analysis, args.has("show-output"))
          << "\n";
    }
  } catch (const std::exception& e) {
    return fail(out, e.what());
  }
  warn_unused(args, out);
  return 0;
}

int cmd_simulate(const Args& args, std::ostream& out) {
  const auto file = args.get("in");
  if (!file) return fail(out, "simulate requires --in FILE");
  const auto key = args.get("key");
  if (!key) return fail(out, "simulate requires --key SUBDATASET");
  try {
    const auto nodes = static_cast<std::uint32_t>(args.get_u64_or("nodes", 16));
    dfs::DfsOptions dopt;
    dopt.block_size = args.get_u64_or("block-size", 128 * 1024);
    dopt.seed = args.get_u64_or("seed", 42);
    dfs::MiniDfs fs(dfs::ClusterTopology::flat(nodes), dopt);
    workload::LoadStats stats;
    workload::ingest_file(fs, "/data", *file, &stats);
    out << "ingested " << stats.loaded << " records into " << fs.num_blocks()
        << " blocks\n";

    const core::DataNet net(fs, "/data", {.alpha = args.get_double_or("alpha", 0.3)});
    const auto graph = net.scheduling_graph(*key);
    if (graph.num_blocks() == 0) {
      return fail(out, "sub-dataset '" + *key + "' not found in any block");
    }

    sim::SelectionSimOptions opt;
    opt.cluster.num_nodes = nodes;
    opt.cluster.node.slots =
        static_cast<std::uint32_t>(args.get_u64_or("slots", 2));
    opt.cluster.node.disk_mbps = args.get_double_or("disk-mbps", 80.0);
    opt.cluster.node.nic_mbps = args.get_double_or("nic-mbps", 100.0);

    // One SelectionRuntime, timing-only, with the event-driven backend; the
    // scheduler is the only thing that changes between the two rows.
    core::ExperimentConfig sim_cfg;
    sim_cfg.num_nodes = nodes;
    core::DirectReadPolicy read(fs, sim_cfg.remote_read_penalty);
    core::NoFaults faults;
    sim::EventSimBackend backend(fs, opt);
    const core::SelectionRuntime runtime(read, faults, backend);

    scheduler::LocalityScheduler base(7);
    const auto r_loc = runtime.run_graph(fs, graph, *key, base, sim_cfg,
                                         /*materialize=*/false);
    const auto sim_loc = backend.last_sim();
    scheduler::DataNetScheduler dn;
    const auto r_dn = runtime.run_graph(fs, graph, *key, dn, sim_cfg,
                                        /*materialize=*/false);
    const auto sim_dn = backend.last_sim();

    common::TextTable table({"scheduler", "makespan (s)", "remote reads",
                             "max node bytes"});
    const auto max_bytes = [](const std::vector<std::uint64_t>& v) {
      return *std::max_element(v.begin(), v.end());
    };
    table.add_row({"locality", common::fmt_double(sim_loc.makespan, 2),
                   std::to_string(sim_loc.remote_reads),
                   common::format_bytes(max_bytes(r_loc.assignment.node_load))});
    table.add_row({"datanet", common::fmt_double(sim_dn.makespan, 2),
                   std::to_string(sim_dn.remote_reads),
                   common::format_bytes(max_bytes(r_dn.assignment.node_load))});
    out << "\nevent-driven selection over " << graph.num_blocks()
        << " candidate blocks (" << nodes << " nodes, "
        << opt.cluster.node.slots << " slots, "
        << opt.cluster.node.disk_mbps << " MiB/s disk, "
        << opt.cluster.node.nic_mbps << " MiB/s nic):\n"
        << table.to_string();
  } catch (const std::exception& e) {
    return fail(out, e.what());
  }
  warn_unused(args, out);
  return 0;
}

int cmd_faults(const Args& args, std::ostream& out) {
  const auto file = args.get("in");
  if (!file) return fail(out, "faults requires --in FILE");
  const auto key = args.get("key");
  if (!key) return fail(out, "faults requires --key SUBDATASET");
  try {
    core::ExperimentConfig cfg;
    cfg.num_nodes = static_cast<std::uint32_t>(args.get_u64_or("nodes", 16));
    cfg.block_size = args.get_u64_or("block-size", 128 * 1024);
    cfg.seed = args.get_u64_or("seed", 42);

    dfs::DfsOptions dopt;
    dopt.block_size = cfg.block_size;
    dopt.replication = cfg.replication;
    dopt.seed = cfg.seed;
    dfs::MiniDfs fs(dfs::ClusterTopology::flat(cfg.num_nodes), dopt);
    workload::LoadStats stats;
    workload::ingest_file(fs, "/data", *file, &stats);
    out << "ingested " << stats.loaded << " records into " << fs.num_blocks()
        << " blocks\n";

    const core::DataNet net(fs, "/data",
                            {.alpha = args.get_double_or("alpha", 0.3)});
    auto injector = dfs::FaultInjector::random_plan(
        fs, args.get_u64_or("fault-seed", 7), fs.num_blocks(),
        static_cast<std::uint32_t>(args.get_u64_or("kill-nodes", 0)),
        static_cast<std::uint32_t>(args.get_u64_or("corrupt-replicas", 0)),
        /*slow_nodes=*/0,
        static_cast<std::uint32_t>(args.get_u64_or("stall-nodes", 1)),
        static_cast<std::uint32_t>(args.get_u64_or("transient-reads", 2)));

    core::AttemptOptions aopt;
    aopt.timeout_ticks = args.get_u64_or("timeout-ticks", aopt.timeout_ticks);
    aopt.max_attempts = static_cast<std::uint32_t>(
        args.get_u64_or("max-attempts", aopt.max_attempts));
    aopt.speculative = !args.has("no-speculation");

    core::ChecksumRetryReadPolicy read(fs, cfg.remote_read_penalty);
    core::InjectedFaults faults(injector);
    core::AnalyticBackend timing;
    scheduler::DataNetScheduler dn;
    const auto sel = core::SelectionRuntime(read, faults, timing, aopt)
                         .run(fs, "/data", *key, dn, &net, cfg);

    const auto& fstats = injector.stats();
    out << "\nfault plan fired: " << fstats.nodes_killed << " kill(s), "
        << fstats.nodes_stalled << " stall(s), "
        << fstats.replicas_corrupted << " corrupt replica(s), "
        << fstats.transient_failures_consumed
        << " transient read failure(s) consumed\n";
    const auto& a = sel.report.attempts;
    common::TextTable table({"metric", "value"});
    table.add_row({"selection seconds",
                   common::fmt_double(sel.report.total_seconds, 1)});
    table.add_row({"attempts dispatched", std::to_string(a.attempts)});
    table.add_row({"timeouts", std::to_string(a.timeouts)});
    table.add_row({"transient retries", std::to_string(a.transient_retries)});
    table.add_row({"re-dispatches", std::to_string(a.redispatches)});
    table.add_row({"speculative launched",
                   std::to_string(a.speculative_launched)});
    table.add_row({"speculative wins", std::to_string(a.speculative_wins)});
    table.add_row({"degraded tasks", std::to_string(a.degraded_tasks)});
    table.add_row({"retries (checksum/kill)",
                   std::to_string(sel.report.retries)});
    table.add_row({"lost blocks", std::to_string(sel.report.lost_blocks)});
    table.add_row({"under-replicated blocks",
                   std::to_string(sel.report.under_replicated)});
    out << table.to_string();

    const auto post = dfs::check_post_fault_invariants(fs);
    if (!post.ok) return fail(out, post.violation);
    out << "post-fault fsck: " << post.report.missing_blocks << " missing, "
        << post.report.under_replicated << " under-replicated — invariants "
        << "hold\n";
    if (args.has("json")) {
      out << "\n" << mapred::report_to_json(sel.report, false) << "\n";
    }
  } catch (const std::exception& e) {
    return fail(out, e.what());
  }
  warn_unused(args, out);
  return 0;
}

namespace {

// fsck --meta-shards M (M > 1): exercise the sharded metadata plane end to
// end — spread the input across part files so every shard owns namespace,
// journal per shard, kill one shard, show the others keep serving, recover
// the victim from its own checkpoint + journal suffix, then plane-wide fsck.
int fsck_plane(const Args& args, std::ostream& out) {
  const auto file = args.get("in");
  int rc = 0;
  try {
    const auto nodes = static_cast<std::uint32_t>(args.get_u64_or("nodes", 16));
    dfs::MetaPlaneOptions popt;
    popt.num_shards =
        static_cast<std::uint32_t>(args.get_u64_or("meta-shards", 1));
    popt.dfs.block_size = args.get_u64_or("block-size", 128 * 1024);
    popt.dfs.replication =
        static_cast<std::uint32_t>(args.get_u64_or("replication", 3));
    popt.dfs.seed = args.get_u64_or("seed", 42);
    dfs::MetaPlane plane(dfs::ClusterTopology::flat(nodes), popt);

    const std::string workdir = args.get_or(
        "workdir",
        (std::filesystem::temp_directory_path() / "datanet_fsck_plane")
            .string());
    std::filesystem::create_directories(workdir);

    workload::LoadStats stats;
    const auto records = workload::load_records(*file, &stats);
    if (records.empty()) return fail(out, "no valid records in " + *file);

    // Next "<stem><n>" owned by `shard`, counting n up from `next`.
    const auto path_on_shard = [&plane](const std::string& stem,
                                        std::uint32_t shard,
                                        std::uint64_t& next) {
      for (;;) {
        std::string cand = stem + std::to_string(next++);
        if (plane.shard_of(cand) == shard) return cand;
      }
    };

    // A file lives wholly on its owning shard, so split the input into at
    // least one part file per shard, part p named to land on shard p % S.
    const std::uint64_t parts = std::min<std::uint64_t>(
        std::max<std::uint64_t>(
            args.get_u64_or("files", 2ull * popt.num_shards), popt.num_shards),
        records.size());
    const std::span<const workload::Record> all(records);
    const std::uint64_t base = records.size() / parts;
    const std::uint64_t extra = records.size() % parts;
    std::uint64_t off = 0;
    std::uint64_t part_no = 0;
    for (std::uint64_t p = 0; p < parts; ++p) {
      const std::uint64_t len = base + (p < extra ? 1 : 0);
      const std::string path = path_on_shard(
          "/data/part-", static_cast<std::uint32_t>(p % plane.num_shards()),
          part_no);
      workload::ingest(plane.dfs_for(path), path, all.subspan(off, len));
      off += len;
    }
    out << "ingested " << records.size() << " records as " << parts
        << " part file(s) across " << plane.num_shards()
        << " metadata shards (" << stats.skipped << " malformed skipped)\n";
    for (std::uint32_t s = 0; s < plane.num_shards(); ++s) {
      if (plane.dfs(s).list_files().empty()) {
        return fail(out, "shard " + std::to_string(s) + " owns no file");
      }
    }

    // Checkpoint everything, then land one late file on the victim shard so
    // its recovery has a journal suffix to replay past the checkpoint.
    plane.attach_journals(workdir);
    const auto victim = static_cast<std::uint32_t>(
        args.get_u64_or("crash-shard", 0) % plane.num_shards());
    std::uint64_t late_no = 0;
    const std::string late_path = path_on_shard("/data/late-", victim, late_no);
    const auto tail =
        all.subspan(records.size() - std::min<std::size_t>(records.size(), 64));
    workload::ingest(plane.dfs_for(late_path), late_path, tail);

    // Also leave an open (unsealed) block with a committed extent in flight
    // on the victim — a crash mid-ingestion — so recovery replays the
    // streaming journal ops, not just whole-file writes.
    const auto open_id = plane.dfs_for(late_path).open_block(late_path);
    plane.dfs_for(late_path).append_extent(open_id, "in-flight extent\n", 1);

    common::TextTable table({"shard", "files", "blocks", "epoch", "journal"});
    for (std::uint32_t s = 0; s < plane.num_shards(); ++s) {
      table.add_row({std::to_string(s),
                     std::to_string(plane.dfs(s).list_files().size()),
                     std::to_string(plane.dfs(s).num_blocks()),
                     std::to_string(plane.dfs(s).mutation_epoch()),
                     plane.journal_path(s)});
    }
    out << table.to_string();

    // Kill the victim; every other shard must keep serving while it is down,
    // and touching the victim must fail with the typed shard error.
    const auto want = plane.dfs(victim).namespace_digest();
    plane.crash_shard(victim);
    for (std::uint32_t s = 0; s < plane.num_shards(); ++s) {
      if (s == victim) continue;
      (void)plane.dfs(s).namespace_digest();  // throws if not serving
    }
    bool typed_unavailable = false;
    try {
      (void)plane.dfs(victim);
    } catch (const dfs::ShardUnavailableError&) {
      typed_unavailable = true;
    }
    out << "\ncrashed shard " << victim << " (an open block in flight); "
        << (plane.num_shards() - 1) << " other shard(s) still serving\n";
    if (!typed_unavailable) {
      out << "error: crashed shard did not raise ShardUnavailableError\n";
      rc = 1;
    }

    const auto info = plane.recover_shard(victim);
    out << "recovered shard " << victim << ": replayed "
        << info.replayed_frames << " journal frame(s) past its checkpoint ("
        << info.skipped_frames << " covered by it)";
    if (info.torn) out << ", torn tail of " << info.dropped_bytes << " B dropped";
    out << "\n";
    if (plane.dfs(victim).namespace_digest() != want) {
      return fail(out, "recovered shard digest mismatch");
    }
    out << "recovered shard digest matches its pre-crash namespace\n";

    const auto report = dfs::fsck(plane);
    out << "plane fsck: " << report.combined.total_blocks << " blocks, "
        << report.combined.missing_blocks << " missing, "
        << report.combined.under_replicated << " under-replicated, "
        << report.combined.open_blocks << " open across "
        << plane.num_shards() << " shard(s)\n";
    if (!report.healthy()) {
      return fail(out, "plane fsck reports an unhealthy namespace");
    }
  } catch (const std::exception& e) {
    return fail(out, e.what());
  }
  warn_unused(args, out);
  return rc;
}

}  // namespace

int cmd_fsck(const Args& args, std::ostream& out) {
  const auto file = args.get("in");
  if (!file) return fail(out, "fsck requires --in FILE");
  if (args.get_u64_or("meta-shards", 1) > 1) return fsck_plane(args, out);
  int rc = 0;
  try {
    const auto nodes = static_cast<std::uint32_t>(args.get_u64_or("nodes", 16));
    dfs::DfsOptions dopt;
    dopt.block_size = args.get_u64_or("block-size", 128 * 1024);
    dopt.replication =
        static_cast<std::uint32_t>(args.get_u64_or("replication", 3));
    dopt.seed = args.get_u64_or("seed", 42);
    dopt.inline_repair = false;  // healing flows through the monitor below

    const std::string workdir = args.get_or(
        "workdir",
        (std::filesystem::temp_directory_path() / "datanet_fsck").string());
    std::filesystem::create_directories(workdir);
    const std::string journal_path = workdir + "/namenode.edits";
    const std::string image_path = workdir + "/namenode.fsimage";

    dfs::MiniDfs fs(dfs::ClusterTopology::flat(nodes), dopt);
    dfs::EditLog journal(journal_path);
    fs.attach_edit_log(&journal);
    workload::LoadStats stats;
    workload::ingest_file(fs, "/data", *file, &stats);
    out << "ingested " << stats.loaded << " records into " << fs.num_blocks()
        << " blocks (replication " << dopt.replication << ", " << nodes
        << " nodes)\n\n";

    // Checkpoint the clean namespace, then report what is on disk.
    dfs::FsImage::save(fs, image_path);
    const auto img = dfs::FsImage::inspect(image_path);
    out << "checkpoint " << image_path << ": "
        << common::format_bytes(img.file_bytes) << ", " << img.num_files
        << " file(s), " << img.num_blocks << " blocks, " << img.active_nodes
        << "/" << img.num_nodes << " nodes active, covers journal to offset "
        << img.journal_covered << "\n";
    const auto jr0 = dfs::EditLog::replay(journal_path);
    out << "journal " << journal_path << ": " << jr0.records.size()
        << " frames, " << common::format_bytes(jr0.valid_bytes) << " valid"
        << (jr0.torn ? " (torn tail dropped)" : "") << "\n\n";
    if (jr0.torn) {
      out << "error: journal has a torn tail before any fault was injected\n";
      rc = 1;
    }

    // Damage the cluster, journaling every mutation but repairing nothing.
    auto injector = dfs::FaultInjector::random_plan(
        fs, args.get_u64_or("fault-seed", 7), /*horizon_tasks=*/1,
        static_cast<std::uint32_t>(args.get_u64_or("kill-nodes", 2)),
        static_cast<std::uint32_t>(args.get_u64_or("corrupt-replicas", 4)));
    injector.advance(~0ull);
    const auto& fstats = injector.stats();
    out << "fault plan fired: " << fstats.nodes_killed << " kill(s), "
        << fstats.replicas_corrupted << " corrupt replica(s), "
        << fstats.lost_blocks.size() << " block(s) lost outright\n";

    dfs::ReplicationMonitor monitor(
        fs, {.max_repairs_per_tick = static_cast<std::uint32_t>(
                 args.get_u64_or("repair-rate", 4))});
    monitor.scan();
    const auto before = dfs::fsck(fs);
    out << "fsck before healing: " << before.missing_blocks << " missing, "
        << before.under_replicated << " under-replicated\n";
    const auto queue = monitor.queue();
    if (!queue.empty()) {
      common::TextTable table({"block", "surviving", "target"});
      const std::uint64_t top = args.get_u64_or("top", 10);
      for (std::size_t i = 0; i < std::min<std::size_t>(top, queue.size());
           ++i) {
        table.add_row({std::to_string(queue[i].block),
                       std::to_string(queue[i].surviving),
                       std::to_string(queue[i].target)});
      }
      out << "healing queue (" << queue.size() << " pending, worst first):\n"
          << table.to_string();
    }

    const auto ticks = monitor.drain();
    const auto& m = monitor.stats();
    const auto after = dfs::fsck(fs);
    out << "\ndrained in " << ticks << " tick(s) at rate "
        << args.get_u64_or("repair-rate", 4) << ": " << m.healed_blocks
        << " healed, " << m.repairs << " replicas created, "
        << m.scrubbed_replicas << " corrupt copies scrubbed, "
        << m.unrepairable << " unrepairable, mttr " << m.mttr_ticks
        << " tick(s), queue now " << monitor.queue().size() << "\n";
    out << "fsck after healing: " << after.missing_blocks << " missing, "
        << after.under_replicated << " under-replicated\n";
    // `unrepairable` alone is transient (a later scan may re-queue and heal
    // the block); the exit gate is the post-drain namespace state.
    if (after.missing_blocks > 0 || after.under_replicated > 0) {
      out << "error: namespace is not healthy after healing";
      if (m.unrepairable > 0) {
        out << " (" << m.unrepairable << " repair(s) dropped as unrepairable)";
      }
      out << "\n";
      rc = 1;
    }

    // Leave one block open (unsealed) with a committed extent in flight —
    // the state a crashed ingestor leaves behind — so the crash/recover
    // round-trip below also covers the streaming-ingestion journal ops.
    const auto open_id = fs.open_block("/data");
    fs.append_extent(open_id, "in-flight extent\n", 1);
    out << "left block " << open_id
        << " open with one group-committed extent in flight\n";

    // Crash the NameNode and prove recover() rebuilds the same namespace
    // from checkpoint + journal suffix.
    const auto live_digest = fs.namespace_digest();
    fs.crash_namenode();
    dfs::RecoveryInfo info;
    const auto recovered = dfs::MiniDfs::recover(image_path, journal_path, &info);
    out << "\ncrash + recover: replayed " << info.replayed_frames
        << " journal frame(s) past the checkpoint (" << info.skipped_frames
        << " covered by it)";
    if (info.torn) out << ", torn tail of " << info.dropped_bytes << " B dropped";
    out << "\n";
    if (recovered.namespace_digest() != live_digest) {
      return fail(out, "recovered namespace digest mismatch");
    }
    out << "recovered namespace digest matches the pre-crash NameNode\n";

    // Open-block audit: the recovered instance's open blocks (count, extent
    // sequence, journaled length, content CRC) must agree with the live
    // NameNode's committed state.
    const auto audit = dfs::audit_open_blocks(fs, recovered);
    out << "open-block audit: " << audit.open_blocks << " open block(s), "
        << common::format_bytes(audit.open_bytes) << " in flight";
    if (audit.ok()) {
      out << " — journaled extents match stored bytes\n";
    } else {
      out << "\n";
      for (const auto& v : audit.violations) out << "error: " << v << "\n";
      rc = 1;
    }
  } catch (const std::exception& e) {
    return fail(out, e.what());
  }
  warn_unused(args, out);
  return rc;
}

int cmd_ingest(const Args& args, std::ostream& out) {
  int rc = 0;
  try {
    // Input records: --in FILE, or a generated log (--type/--records/--seed).
    std::vector<workload::Record> records;
    if (const auto file = args.get("in")) {
      workload::LoadStats ls;
      records = workload::load_records(*file, &ls);
    } else {
      records = generate_records(args.get_or("type", "movie"),
                                 args.get_u64_or("records", 20000),
                                 args.get_u64_or("seed", 42));
    }
    if (records.size() < 2) {
      return fail(out, "need at least 2 records to ingest");
    }

    const auto nodes = static_cast<std::uint32_t>(args.get_u64_or("nodes", 16));
    dfs::DfsOptions dopt;
    dopt.block_size = args.get_u64_or("block-size", 64 * 1024);
    dopt.replication =
        static_cast<std::uint32_t>(args.get_u64_or("replication", 3));
    dopt.seed = args.get_u64_or("seed", 42);
    dfs::IngestOptions iopt;
    iopt.group_records = args.get_u64_or("group", 64);
    elasticmap::LiveMapOptions lopt;
    lopt.max_blocks_per_tick =
        static_cast<std::uint32_t>(args.get_u64_or("map-blocks-per-tick", 4));
    lopt.rebuild_watermark = args.get_double_or("rebuild-watermark", 0.25);
    const std::string path = "/data/stream.log";

    // The byte stream a never-crashed run stores, and per-key ground truth.
    std::vector<std::string> lines;
    lines.reserve(records.size());
    std::string stream;
    std::map<std::string, std::uint64_t> truth_bytes;
    for (const auto& r : records) {
      lines.push_back(workload::encode_record(r));
      truth_bytes[r.key] += lines.back().size() + 1;
      stream += lines.back();
      stream.push_back('\n');
    }

    // Reference run: same records, same shape, never crashes, no journal.
    dfs::MiniDfs ref(dfs::ClusterTopology::flat(nodes), dopt);
    {
      dfs::Ingestor ing(ref, path, iopt);
      for (const auto& line : lines) ing.append(line);
    }
    if (file_content(ref, path) != stream) {
      return fail(out, "reference ingestion did not store the input stream");
    }

    // Durable run: journal + checkpoint in --workdir, killed at a seeded
    // record index (mid-group, mid-block — wherever the draw lands).
    const std::string workdir = args.get_or(
        "workdir",
        (std::filesystem::temp_directory_path() / "datanet_ingest").string());
    std::filesystem::create_directories(workdir);
    const std::string journal_path = workdir + "/ingest.edits";
    const std::string crash_journal = workdir + "/ingest.edits.crash";
    const std::string image_path = workdir + "/ingest.fsimage";

    std::uint64_t kill_at = args.get_u64_or("kill-at", 0);
    if (kill_at == 0 || kill_at >= lines.size()) {
      // Seeded draw from the middle half of the stream.
      std::mt19937_64 rng(args.get_u64_or("kill-seed", 7));
      kill_at = lines.size() / 4 +
                rng() % std::max<std::uint64_t>(1, lines.size() / 2);
      kill_at = std::max<std::uint64_t>(1, kill_at);
    }
    const std::uint64_t checkpoint_at =
        args.get_u64_or("checkpoint-at", kill_at / 2);

    dfs::MiniDfs live(dfs::ClusterTopology::flat(nodes), dopt);
    dfs::EditLog journal(journal_path);
    live.attach_edit_log(&journal);
    dfs::FsImage::save(live, image_path);  // consistent (image, empty journal)
    elasticmap::LiveMapMaintainer maint(live, path, lopt);
    double peak_drift = 0.0;
    auto ing = std::make_unique<dfs::Ingestor>(live, path, iopt);
    ing->on_seal = [&](dfs::BlockId) {
      maint.scan();
      peak_drift = std::max(peak_drift, maint.ledger().estimated_chi_drift);
      if (maint.ledger().rebuild_recommended) {
        maint.full_rebuild();
      } else {
        maint.tick();
      }
    };
    for (std::uint64_t i = 0; i < kill_at; ++i) {
      ing->append(lines[i]);
      if (i + 1 == checkpoint_at) {
        dfs::FsImage::save(live, image_path);  // checkpoint with a block open
      }
    }
    maint.scan();
    const auto st = ing->stats();
    out << "streamed " << st.records_appended << "/" << lines.size()
        << " records before the crash: " << st.group_commits
        << " group commit(s) of up to " << iopt.group_records << ", "
        << st.blocks_sealed << " block(s) sealed, "
        << (st.blocks_opened - st.blocks_sealed) << " open, "
        << common::format_bytes(st.bytes_committed) << " durable\n";
    const auto lg = maint.ledger();
    out << "live map at crash: " << lg.covered_blocks << " blocks covered, "
        << lg.stale_blocks << " stale, chi drift bound "
        << common::fmt_double(lg.estimated_chi_drift, 4) << " (peak "
        << common::fmt_double(peak_drift, 4) << "), " << lg.deltas_applied
        << " delta(s), " << lg.full_rebuilds << " full rebuild(s)\n";

    // CRASH: the journal file as it exists this instant is what survives;
    // the ingestor's buffered tail (< one group) dies with the process.
    std::filesystem::copy_file(
        journal_path, crash_journal,
        std::filesystem::copy_options::overwrite_existing);
    dfs::RecoveryInfo info;
    auto recovered = dfs::MiniDfs::recover(image_path, crash_journal, &info);
    out << "\ncrash + recover: replayed " << info.replayed_frames
        << " frame(s) past the checkpoint (" << info.skipped_frames
        << " covered by it)" << (info.torn ? ", torn tail dropped" : "")
        << "\n";

    // The recovered namespace must equal the live one at the crash instant
    // (MiniDfs holds only committed bytes, so live == durable here), and the
    // open block's stored bytes must match the journaled extents.
    if (recovered.namespace_digest() != live.namespace_digest()) {
      return fail(out, "recovered namespace digest mismatch at the crash point");
    }
    const auto audit = dfs::audit_open_blocks(live, recovered);
    out << "open-block audit: " << audit.open_blocks << " open, "
        << common::format_bytes(audit.open_bytes) << " in flight";
    if (audit.ok()) {
      out << " — journaled extents match stored bytes\n";
    } else {
      out << "\n";
      for (const auto& v : audit.violations) out << "error: " << v << "\n";
      rc = 1;
    }
    ing.reset();  // the dead writer's buffer never reaches the crash journal

    // Crash consistency: the recovered content is exactly a group-committed
    // prefix of the reference stream, short of the kill point by less than
    // one group.
    const std::string recovered_content = file_content(recovered, path);
    const auto committed = static_cast<std::uint64_t>(
        std::count(recovered_content.begin(), recovered_content.end(), '\n'));
    if (recovered_content != stream.substr(0, recovered_content.size())) {
      return fail(out,
                  "recovered content is not a prefix of the reference stream");
    }
    if (committed > kill_at || kill_at - committed >= iopt.group_records) {
      return fail(out, "a group-committed batch was lost in the crash");
    }
    out << "recovered " << committed << " committed record(s); "
        << (kill_at - committed)
        << " buffered record(s) died with the process\n";

    // Continue on the recovered NameNode: fresh (checkpoint, empty journal)
    // pair as in MetaPlane::recover_shard, adopt the open block, stream the
    // uncommitted remainder, then drain the map maintainer.
    dfs::EditLog journal2(journal_path);
    recovered.attach_edit_log(&journal2);
    dfs::FsImage::save(recovered, image_path);
    elasticmap::LiveMapMaintainer maint2(recovered, path, lopt);
    {
      dfs::Ingestor ing2(recovered, path, iopt);
      ing2.on_seal = [&](dfs::BlockId) {
        maint2.scan();
        if (maint2.ledger().rebuild_recommended) {
          maint2.full_rebuild();
        } else {
          maint2.tick();
        }
      };
      for (std::uint64_t i = committed; i < lines.size(); ++i) {
        ing2.append(lines[i]);
      }
    }
    const std::uint64_t drain_ticks = maint2.drain();

    // The continued run must be indistinguishable from one that never
    // crashed: same bytes, same block boundaries, same estimates.
    if (file_content(recovered, path) != stream) {
      return fail(out, "continued ingestion diverged from the reference stream");
    }
    if (recovered.blocks_of(path).size() != ref.blocks_of(path).size()) {
      return fail(out,
                  "continued ingestion produced different block boundaries");
    }
    const auto ref_map =
        elasticmap::ElasticMapArray::build(ref, path, lopt.build);
    std::vector<std::pair<std::uint64_t, std::string>> ranked;
    for (const auto& [key, bytes] : truth_bytes) ranked.emplace_back(bytes, key);
    std::sort(ranked.rbegin(), ranked.rend());
    common::TextTable table({"sub-dataset", "truth", "estimate", "chi"});
    for (std::size_t i = 0; i < std::min<std::size_t>(5, ranked.size()); ++i) {
      const auto& key = ranked[i].second;
      const auto id = workload::subdataset_id(key);
      const std::uint64_t est = maint2.map().estimate_total_size(id);
      if (est != ref_map.estimate_total_size(id)) {
        out << "error: delta-built estimate for '" << key
            << "' diverges from the full rebuild\n";
        rc = 1;
      }
      table.add_row(
          {key, common::format_bytes(ranked[i].first),
           common::format_bytes(est),
           common::fmt_double(static_cast<double>(est) /
                                  static_cast<double>(ranked[i].first),
                              4)});
    }
    const auto lg2 = maint2.ledger();
    out << "\nchi ledger after recovery + drain (" << drain_ticks
        << " tick(s)): " << lg2.covered_blocks << " blocks covered, "
        << lg2.stale_blocks << " stale, chi drift bound "
        << common::fmt_double(lg2.estimated_chi_drift, 4) << ", "
        << lg2.deltas_applied << " delta(s), " << lg2.full_rebuilds
        << " full rebuild(s)\n"
        << table.to_string();

    const auto report = dfs::fsck(recovered);
    out << "\nfsck: " << report.total_blocks << " blocks, "
        << report.missing_blocks << " missing, " << report.under_replicated
        << " under-replicated, " << report.open_blocks << " open\n";
    if (!report.healthy() || report.open_blocks != 0) {
      out << "error: namespace unhealthy (or a block left open) after close\n";
      rc = 1;
    }
    out << (rc == 0 ? "ingestion drill passed\n" : "ingestion drill FAILED\n");
  } catch (const std::exception& e) {
    return fail(out, e.what());
  }
  warn_unused(args, out);
  return rc;
}

int cmd_forecast(const Args& args, std::ostream& out) {
  const auto file = args.get("in");
  if (!file) return fail(out, "forecast requires --in FILE");
  const auto key = args.get("key");
  if (!key) return fail(out, "forecast requires --key SUBDATASET");
  try {
    // Ingest once to obtain the per-block distribution of the sub-dataset.
    dfs::DfsOptions dopt;
    dopt.block_size = args.get_u64_or("block-size", 128 * 1024);
    dopt.replication = 3;
    dfs::MiniDfs fs(dfs::ClusterTopology::flat(8), dopt);
    workload::LoadStats stats;
    workload::ingest_file(fs, "/data", *file, &stats);
    const workload::GroundTruth truth(fs, "/data");
    const auto dist = truth.distribution(workload::subdataset_id(*key));

    std::vector<double> nonzero;
    for (const auto v : dist) {
      if (v > 0) nonzero.push_back(static_cast<double>(v) / 1024.0);
    }
    if (nonzero.size() < 2) {
      return fail(out, "sub-dataset '" + *key + "' present in < 2 blocks");
    }

    const auto g = stats::gini(std::span<const std::uint64_t>(dist));
    const auto fit = stats::fit_gamma_mle(nonzero);
    out << "'" << *key << "': " << nonzero.size() << "/" << dist.size()
        << " blocks contain data; gini = " << common::fmt_double(g, 3)
        << "; per-block size ~ Gamma(k=" << common::fmt_double(fit.shape, 3)
        << ", theta=" << common::fmt_double(fit.scale, 1) << " KiB)\n";
    // Warn when the Gamma model does not describe the data well.
    if (nonzero.size() >= 20) {
      const stats::GammaDistribution fitted(fit.shape, fit.scale);
      const auto gof = stats::chi_squared_gof(nonzero, fitted);
      out << "goodness of fit: chi2 = " << common::fmt_double(gof.statistic, 1)
          << " (dof " << gof.dof << "), p = "
          << common::fmt_double(gof.p_value, 3);
      if (gof.p_value < 0.01) {
        out << " — the Gamma model fits poorly; treat the forecast as "
               "directional only";
      }
      out << "\n";
    }
    out << "\n";

    common::TextTable table({"cluster nodes", "P(node < E/2)", "P(node > 2E)",
                             "expected stragglers"});
    for (const std::uint64_t m : {8ull, 16ull, 32ull, 64ull, 128ull, 256ull}) {
      const auto z = stats::node_workload_distribution(fit.shape, fit.scale,
                                                       nonzero.size(), m);
      table.add_row({std::to_string(m), common::fmt_percent(z.cdf(z.mean() / 2)),
                     common::fmt_percent(z.sf(2 * z.mean())),
                     common::fmt_double(static_cast<double>(m) *
                                            z.sf(2 * z.mean()),
                                        2)});
    }
    out << "Section II-B forecast (locality scheduling, no DataNet):\n"
        << table.to_string();
    out << "\n(DataNet's distribution-aware scheduling removes this "
           "imbalance; see `analyze`)\n";
  } catch (const std::exception& e) {
    return fail(out, e.what());
  }
  warn_unused(args, out);
  return 0;
}

std::string usage() {
  return R"(datanet — sub-dataset distribution-aware analysis (IPDPS'16 reproduction)

usage: datanet <command> [--flags]

commands:
  generate  --out FILE [--type movie|github|worldcup] [--records N] [--seed S]
  inspect   --in FILE [--top K]
  analyze   --in FILE --key SUBDATASET [--job wordcount|histogram|movingavg|
            topk|sessionize|distinct] [--nodes N] [--block-size BYTES]
            [--alpha A] [--query TEXT] [--k K] [--window SECS]
            [--field PREFIX] [--gap SECS] [--show-output] [--json]
  simulate  --in FILE --key SUBDATASET [--nodes N] [--slots S]
            [--disk-mbps D] [--nic-mbps NW] [--block-size BYTES] [--alpha A]
  faults    --in FILE --key SUBDATASET [--nodes N] [--block-size BYTES]
            [--kill-nodes K] [--stall-nodes S] [--transient-reads T]
            [--corrupt-replicas C] [--fault-seed S] [--timeout-ticks T]
            [--max-attempts A] [--no-speculation] [--json]
  fsck      --in FILE [--nodes N] [--replication R] [--block-size BYTES]
            [--kill-nodes K] [--corrupt-replicas C] [--fault-seed S]
            [--repair-rate R] [--top K] [--workdir DIR]
            [--meta-shards M [--files F] [--crash-shard K]]
            (exits non-zero on unrepairable blocks, journal corruption,
             checkpoint errors, or digest mismatch; --meta-shards M > 1 runs
             the sharded-plane kill-one-shard drill instead)
  ingest    [--in FILE | --type movie|github|worldcup --records N] [--seed S]
            [--group RECORDS] [--kill-at R | --kill-seed S] [--checkpoint-at R]
            [--nodes N] [--block-size BYTES] [--replication R]
            [--map-blocks-per-tick B] [--rebuild-watermark F] [--workdir DIR]
            (streams records with group commit, crashes at a seeded point,
             recovers, continues, and exits non-zero unless content, block
             boundaries, and ElasticMap estimates match a never-crashed run)
  forecast  --in FILE --key SUBDATASET [--block-size BYTES]
  serve     [--port P] [--port-file FILE] [--workers W] [--max-queue Q]
            [--max-inflight I] [--max-connections C] [--meta-shards M]
            [--nodes N] [--block-size BYTES] [--replication R] [--seed S]
            [--blocks B]
  query     --port P --key SUBDATASET [--tenant T] [--scheduler
            datanet|locality|lpt|maxflow] [--baseline] [--count N] [--json]
            [--stats] [--shutdown]
            | --local --key SUBDATASET [dataset-shape flags]
)";
}

int run_cli(const std::vector<std::string>& argv, std::ostream& out) {
  if (argv.empty() || argv[0] == "--help" || argv[0] == "help") {
    out << usage();
    return argv.empty() ? 1 : 0;
  }
  const std::string command = argv[0];
  std::string error;
  const auto args =
      Args::parse({argv.begin() + 1, argv.end()}, &error);
  if (!args) {
    out << "error: " << error << "\n" << usage();
    return 1;
  }
  if (command == "generate") return cmd_generate(*args, out);
  if (command == "inspect") return cmd_inspect(*args, out);
  if (command == "analyze") return cmd_analyze(*args, out);
  if (command == "simulate") return cmd_simulate(*args, out);
  if (command == "faults") return cmd_faults(*args, out);
  if (command == "fsck") return cmd_fsck(*args, out);
  if (command == "ingest") return cmd_ingest(*args, out);
  if (command == "forecast") return cmd_forecast(*args, out);
  if (command == "serve") return cmd_serve(*args, out);
  if (command == "query") return cmd_query(*args, out);
  out << "error: unknown command '" << command << "'\n" << usage();
  return 1;
}

}  // namespace datanet::cli
