#include "datanet/selection_runtime.hpp"

#include <algorithm>
#include <stdexcept>

#include "apps/filter.hpp"
#include "common/thread_pool.hpp"
#include "dfs/replication_monitor.hpp"
#include "elasticmap/stripe_table.hpp"
#include "workload/record.hpp"

namespace datanet::core {

// ---- read policies ----

ReplicaRead DirectReadPolicy::read(dfs::BlockId block, dfs::NodeId node) {
  ReplicaRead r;
  // Pinned zero-copy read: the view survives concurrent healing for as long
  // as the caller holds r.pin (run_graph keeps it until after the report).
  dfs::PinnedRead pinned = dfs_->read_block_pinned(block);
  r.data = pinned.data;
  r.pin = std::move(pinned.pin);
  r.charged_bytes = dfs_->is_local(block, node)
                        ? r.data.size()
                        : static_cast<std::uint64_t>(
                              static_cast<double>(r.data.size()) *
                              (1.0 + penalty_));
  r.ok = true;
  return r;
}

ReplicaRead ChecksumRetryReadPolicy::read(dfs::BlockId block,
                                          dfs::NodeId node) {
  ReplicaRead r;
  const auto bytes = dfs_->block(block).size_bytes;
  std::vector<dfs::NodeId> sources;
  if (dfs_->is_local(block, node)) sources.push_back(node);
  {
    std::vector<dfs::NodeId> others = dfs_->replicas_snapshot(block);
    std::sort(others.begin(), others.end());
    for (const dfs::NodeId s : others) {
      if (s != node) sources.push_back(s);
    }
  }
  for (const dfs::NodeId src : sources) {
    const bool remote = src != node;
    r.charged_bytes += static_cast<std::uint64_t>(
        static_cast<double>(bytes) * (remote ? 1.0 + penalty_ : 1.0));
    if (dfs_->replica_healthy(block, src)) {
      dfs::PinnedRead pinned = dfs_->read_replica_pinned(block, src);
      r.data = pinned.data;
      r.pin = std::move(pinned.pin);
      r.ok = true;
      return r;
    }
    ++r.failed_attempts;  // checksum failure detected after the read
    (void)dfs_->report_corrupt_replica(block, src);
  }
  return r;
}

// ---- fault policies ----

bool InjectedFaults::advance(std::uint64_t executed_tasks) {
  const auto fired = injector_->advance(executed_tasks);
  return std::any_of(fired.begin(), fired.end(), [](const dfs::FaultEvent& e) {
    return e.kind == dfs::FaultKind::kKillNode;
  });
}

bool InjectedFaults::is_stalled(dfs::NodeId node) const {
  return injector_->is_stalled(node);
}

bool InjectedFaults::take_transient_read_failure(dfs::BlockId block) {
  return injector_->take_transient_read_failure(block);
}

std::vector<double> InjectedFaults::node_speeds() const {
  if (!injector_->any_slowdown()) return {};
  return injector_->node_speeds();
}

// ---- timing backends ----

scheduler::AssignmentRecord TimingBackend::assign(
    scheduler::TaskScheduler& sched, const graph::BipartiteGraph& graph,
    const std::vector<std::uint64_t>& block_bytes) {
  return scheduler::drain(sched, graph, block_bytes);
}

mapred::JobReport AnalyticBackend::report(
    const std::string& key, const std::vector<mapred::InputSplit>& splits,
    const ExperimentConfig& cfg, const std::vector<double>& node_speeds,
    const mapred::AttemptCounters& attempts) {
  // The FilterStats job's report over the splits, built from the census the
  // materialize scan took of each one: nothing is decoded again.
  const mapred::Job filter_job = apps::make_filter_stats_job(key);
  mapred::CostModel cost = filter_job.config.cost;
  cost.time_scale = cfg.effective_time_scale();
  mapred::EngineOptions opt = engine_options(cfg);
  if (!node_speeds.empty()) opt.node_speed = node_speeds;
  // Price duplicated work with the (single) speculative backup pass exactly
  // when the attempt layer actually launched duplicates, so clean runs keep
  // their non-speculative timings bit-for-bit.
  opt.speculative = attempts.speculative_launched > 0;

  mapred::JobReport report;
  std::vector<std::uint64_t> task_records(splits.size());
  std::vector<std::uint64_t> partition_bytes(filter_job.config.num_reducers, 0);
  std::uint64_t& key_partition =
      partition_bytes[mapred::partition_hash(key) % partition_bytes.size()];
  std::uint64_t matched = 0;
  std::uint64_t matched_bytes = 0;
  for (std::size_t t = 0; t < splits.size(); ++t) {
    const mapred::SplitCensus& c = splits[t].census;
    task_records[t] = c.records;
    report.input_records += c.records;
    report.skipped_lines += c.skipped;
    report.input_bytes += splits[t].data.size();
    if (c.matched > 0) {
      // FilterStats' mapper folds a task's matches into one (key, byte sum)
      // pair.
      ++report.map_output_pairs;
      key_partition += key.size() + std::to_string(c.matched_bytes).size() + 2;
    }
    matched += c.matched;
    matched_bytes += c.matched_bytes;
  }
  if (matched > 0) {
    report.counters["records_matched"] = matched;
    report.output[key] = std::to_string(matched_bytes);
  }
  if (report.input_records > matched) {
    report.counters["records_filtered_out"] = report.input_records - matched;
  }
  mapred::price(cost, opt, splits, task_records, partition_bytes, report);
  return report;
}

mapred::JobReport CostOnlyBackend::report(
    const std::string&, const std::vector<mapred::InputSplit>&,
    const ExperimentConfig&, const std::vector<double>&,
    const mapred::AttemptCounters&) {
  return {};  // no engine pass; run_graph merges loop counters afterwards
}

// ---- the runtime ----

SelectionResult SelectionRuntime::run(const dfs::MiniDfs& dfs,
                                      const std::string& path,
                                      const std::string& key,
                                      scheduler::TaskScheduler& sched,
                                      const DataNet* net,
                                      const ExperimentConfig& cfg) const {
  cfg.validate();
  if (cfg.num_nodes != dfs.topology().num_nodes()) {
    throw std::invalid_argument("SelectionRuntime: cfg/dfs node count mismatch");
  }
  // DataNet prunes + weights candidate blocks; the baseline scans
  // everything, content-blind.
  const graph::BipartiteGraph graph =
      net ? net->scheduling_graph(key)
          : graph::BipartiteGraph::content_blind(dfs, path);
  return run_graph(dfs, graph, key, sched, cfg);
}

SelectionResult SelectionRuntime::run_graph(const dfs::MiniDfs& dfs,
                                            const graph::BipartiteGraph& graph,
                                            const std::string& key,
                                            scheduler::TaskScheduler& sched,
                                            const ExperimentConfig& cfg,
                                            bool materialize) const {
  if (cfg.num_nodes != graph.num_nodes()) {
    throw std::invalid_argument(
        "SelectionRuntime: cfg/graph node count mismatch");
  }
  // No record has an empty key, so an empty key would select nothing while
  // the report's FilterStats pricing read it as "every key".
  if (key.empty()) {
    throw std::invalid_argument("SelectionRuntime: empty selection key");
  }
  const std::size_t num_tasks = graph.num_blocks();
  std::vector<std::uint64_t> block_bytes(num_tasks);
  for (std::size_t j = 0; j < num_tasks; ++j) {
    block_bytes[j] = dfs.block(graph.block(j).block_id).size_bytes;
  }

  SelectionResult result;
  result.assignment = timing_->assign(sched, graph, block_bytes);
  result.blocks_scanned = num_tasks;
  result.node_local_data.assign(cfg.num_nodes, "");
  result.node_filtered_bytes.assign(cfg.num_nodes, 0);

  std::vector<mapred::InputSplit> splits;
  std::uint64_t retries = 0;
  mapred::AttemptCounters counters;
  // One pin slot per task, held at function scope: splits and task_data are
  // string_views into pinned DFS bytes, and the timing backend's report()
  // below is their last consumer — so the pins must outlive it.
  // Re-executions overwrite a task's slot, releasing the old pin.
  std::vector<dfs::BlockPin> task_pins(num_tasks);

  // The one materialize loop (the paper's Algorithm 1 task-request loop,
  // made straggler-resilient). A clean run is the same loop with a policy
  // that never fires: every task executes once on its assigned node, in
  // task order.
  if (materialize) {
    // Per-task state. Output is buffered per task (not per node) so a killed
    // node's contribution can be discarded and rebuilt deterministically.
    std::vector<std::string> task_output(num_tasks);
    std::vector<std::string_view> task_data(num_tasks);
    std::vector<std::uint64_t> task_charge(num_tasks, 0);
    std::vector<std::uint8_t> done(num_tasks, 0);
    std::vector<std::uint8_t> lost(num_tasks, 0);
    std::vector<std::vector<std::size_t>> completed_on(cfg.num_nodes);

    AttemptTracker tracker(num_tasks, attempts_);
    std::vector<std::uint32_t> node_timeouts(cfg.num_nodes, 0);
    const auto blacklisted = [&](dfs::NodeId n) {
      return node_timeouts[n] >= kBlacklistAfterTimeouts;
    };

    // Failover target for one task: prefer alive, non-blacklisted nodes;
    // when every alive node is blacklisted keep trying somewhere (the retry
    // cap bounds the run either way).
    const auto pick_target = [&](std::size_t j) {
      std::vector<bool> eligible(cfg.num_nodes);
      bool any = false;
      for (dfs::NodeId n = 0; n < cfg.num_nodes; ++n) {
        eligible[n] = dfs.is_active(n) && !blacklisted(n);
        any = any || eligible[n];
      }
      if (!any) {
        for (dfs::NodeId n = 0; n < cfg.num_nodes; ++n) {
          eligible[n] = dfs.is_active(n);
        }
      }
      return scheduler::pick_failover_node(result.assignment, graph, j,
                                           eligible);
    };

    // Cap-counted re-dispatch (timeout/transient successor): exponential
    // backoff, deterministic failover target, degrade at the cap.
    const auto redispatch = [&](std::size_t j, dfs::NodeId node,
                                bool same_node) {
      if (tracker.capped_attempts(j) >= attempts_.max_attempts) {
        tracker.abandon(j);
        return;
      }
      dfs::NodeId target = node;
      if (!same_node || !dfs.is_active(node)) {
        target = pick_target(j);
        scheduler::move_task(result.assignment, graph, block_bytes, j, target);
      }
      tracker.dispatch(j, target,
                       tracker.backoff_delay(tracker.capped_attempts(j)),
                       /*speculative=*/false, /*counts_toward_cap=*/true);
    };

    const auto handle_timeouts = [&] {
      for (const std::size_t a : tracker.expire_due()) {
        const TaskAttempt& at = tracker.attempt(a);
        ++node_timeouts[at.node];
        // The parked attempt's read was started and wasted: charge it like
        // any other redone work.
        task_charge[at.task] += block_bytes[at.task];
        redispatch(at.task, at.node, /*same_node=*/false);
      }
    };

    // Hadoop-style speculation: when the run is near-drained and attempts
    // are parked on unresponsive nodes, duplicate each parked task once on
    // an idle healthy node (ascending task order; pick_failover_node keeps
    // target choice deterministic). First result wins — the tracker
    // supersedes the rival. Returns whether anything launched.
    const auto maybe_speculate = [&]() -> bool {
      if (!attempts_.speculative) return false;
      if (tracker.open_tasks() > cfg.num_nodes) return false;
      const auto running = tracker.running_attempts();
      if (running.empty()) return false;
      // Nodes currently holding a parked attempt are busy, not idle.
      std::vector<std::uint8_t> busy(cfg.num_nodes, 0);
      for (const std::size_t a : running) busy[tracker.attempt(a).node] = 1;
      bool launched = false;
      for (const std::size_t a : running) {
        const TaskAttempt& at = tracker.attempt(a);
        const std::size_t j = at.task;
        if (tracker.speculated(j) || tracker.live_attempts_of(j) > 1) continue;
        std::vector<bool> eligible(cfg.num_nodes);
        bool any = false;
        for (dfs::NodeId n = 0; n < cfg.num_nodes; ++n) {
          eligible[n] =
              dfs.is_active(n) && !blacklisted(n) && !busy[n] && n != at.node;
          any = any || eligible[n];
        }
        if (!any) continue;
        const dfs::NodeId target =
            scheduler::pick_failover_node(result.assignment, graph, j, eligible);
        tracker.dispatch(j, target, /*delay=*/0, /*speculative=*/true,
                         /*counts_toward_cap=*/false);
        launched = true;
      }
      return launched;
    };

    // React to a node kill: everything assigned to a dead node is stranded —
    // the scheduler re-enqueues pending tasks onto survivors, and tasks that
    // already completed there lost their local output, so they run again
    // (each re-execution is a retry; kill re-dispatches never burn the cap).
    const auto react = [&](const bool any_kill) {
      if (!any_kill) return;
      std::vector<bool> alive(cfg.num_nodes);
      for (dfs::NodeId n = 0; n < cfg.num_nodes; ++n) {
        alive[n] = dfs.is_active(n);
      }
      for (dfs::NodeId n = 0; n < cfg.num_nodes; ++n) {
        if (alive[n]) continue;
        for (const std::size_t j : completed_on[n]) {
          done[j] = 0;
          task_charge[j] += block_bytes[j];  // the dead attempt's work, redone
          tracker.reopen(j);
          ++retries;
        }
        completed_on[n].clear();
      }
      scheduler::reassign_stranded(result.assignment, graph, block_bytes,
                                   alive);
      // Attempts stranded on the dead node are cancelled; every open task
      // left without a live attempt re-dispatches on its (now alive) owner.
      for (const std::size_t a : tracker.live_attempts()) {
        if (!alive[tracker.attempt(a).node]) tracker.cancel(a);
      }
      for (std::size_t j = 0; j < num_tasks; ++j) {
        if (!tracker.task_open(j) || tracker.has_live_attempt(j)) continue;
        tracker.dispatch(j, result.assignment.block_to_node[j], /*delay=*/0,
                         /*speculative=*/false, /*counts_toward_cap=*/false);
      }
    };

    for (std::size_t j = 0; j < num_tasks; ++j) {
      tracker.dispatch(j, result.assignment.block_to_node[j]);
    }
    react(faults_->advance(0));

    std::uint64_t executed = 0;
    while (tracker.open_tasks() > 0) {
      const auto popped = tracker.pop_ready();
      if (!popped) {
        // Nothing ready now: speculate on parked work, else jump the clock
        // to the next deadline/backoff expiry (event-driven, never spins).
        if (maybe_speculate()) continue;
        const auto next = tracker.next_event_tick();
        if (!next) break;  // no live attempts remain for any open task
        tracker.advance_to(*next);
        handle_timeouts();
        continue;
      }
      const std::size_t a = *popped;
      const std::size_t j = tracker.attempt(a).task;
      const dfs::NodeId node = tracker.attempt(a).node;
      const dfs::BlockId bid = graph.block(j).block_id;

      if (!dfs.is_active(node)) {
        // The node died between dispatch and execution (defensive: react()
        // retargets on kills). Cancel and re-dispatch cap-free.
        tracker.cancel(a);
        const dfs::NodeId target = pick_target(j);
        scheduler::move_task(result.assignment, graph, block_bytes, j, target);
        tracker.dispatch(j, target, /*delay=*/0, /*speculative=*/false,
                         /*counts_toward_cap=*/false);
        continue;
      }
      if (faults_->is_stalled(node)) {
        // The node accepted the task but will never answer: park the attempt
        // until its deadline expires (that is how a stall is detected).
        tracker.mark_running(a);
        continue;
      }

      if (faults_->take_transient_read_failure(bid)) {
        // The read failed transiently; retry the same node after backoff.
        task_charge[j] += block_bytes[j];
        tracker.fail_transient(a);
        redispatch(j, node, /*same_node=*/true);
        tracker.tick();
        ++executed;
        react(faults_->advance(executed));
        handle_timeouts();
        if (monitor_ != nullptr) {
          monitor_->scan();
          monitor_->tick();
        }
        continue;
      }

      ReplicaRead read = read_->read(bid, node);
      task_pins[j] = std::move(read.pin);
      task_charge[j] += read.charged_bytes;
      retries += read.failed_attempts;
      if (!read.ok) {
        lost[j] = 1;
        result.lost_block_ids.push_back(bid);
        tracker.drop(j);
      } else {
        task_data[j] = read.data;  // a re-execution replaces the old bytes
        done[j] = 1;
        // First result wins: if a re-dispatch or speculative duplicate beat
        // the recorded owner, the assignment follows the winner.
        if (result.assignment.block_to_node[j] != node) {
          scheduler::move_task(result.assignment, graph, block_bytes, j, node);
        }
        completed_on[node].push_back(j);
        tracker.complete(a);
      }

      tracker.tick();
      ++executed;
      react(faults_->advance(executed));
      handle_timeouts();
      if (monitor_ != nullptr) {
        // Background healing rides the run's logical clock: one monitor tick
        // per executed task, rate-limited inside tick(). The loop is
        // single-threaded regardless of cfg.execution_threads, so healing is
        // bit-identical across engine thread counts.
        monitor_->scan();
        monitor_->tick();
      }
    }

    // Anything still open ran out of live attempts: degrade loudly rather
    // than hang (belt-and-braces; redispatch() normally abandons at the cap).
    for (std::size_t j = 0; j < num_tasks; ++j) {
      if (tracker.task_open(j) && !done[j] && !lost[j]) tracker.abandon(j);
    }

    // The filter stage: one scan over each done task's final bytes, which
    // both selects the key's records and takes the census the report is
    // priced from. Every read, pin and fault/monitor hook stayed on this
    // thread above; only the scans fan out, each into its own task's slots.
    // Each scan walks only the stripes of its block whose Bloom word admits
    // the key (the whole block when the graph carries no table).
    const std::uint64_t key_bits =
        elasticmap::stripe_bits(workload::subdataset_id(key));
    std::vector<mapred::SplitCensus> task_census(num_tasks);
    std::vector<std::uint64_t> task_scanned(num_tasks, 0);
    common::parallel_for(cfg.execution_threads, num_tasks, [&](std::size_t j) {
      if (!done[j]) return;
      task_census[j] =
          filter_lines(task_data[j], key, task_output[j],
                       graph.block(j).stripes.get(), key_bits, task_scanned[j],
                       common::active_scan_kernel());
    }, /*grain=*/1);  // one block per claim, as in the engine's map stage

    // Rebuild the node-local view in task order, so the final buffers are
    // independent of the retry history. Each task's staging is handed over
    // (moved into an empty node buffer, else appended and freed) as it is
    // consumed, so staging and node buffers are never both fully alive.
    splits.reserve(num_tasks);
    for (std::size_t j = 0; j < num_tasks; ++j) {
      if (!done[j]) continue;
      const dfs::NodeId node = result.assignment.block_to_node[j];
      std::string& buffer = result.node_local_data[node];
      result.node_filtered_bytes[node] += task_output[j].size();
      if (buffer.empty()) {
        buffer = std::move(task_output[j]);
      } else {
        buffer.append(task_output[j]);
      }
      std::string().swap(task_output[j]);
      result.scanned_bytes += task_scanned[j];
      splits.push_back(mapred::InputSplit{.node = node,
                                          .data = task_data[j],
                                          .charged_bytes = task_charge[j],
                                          .census = task_census[j]});
    }

    counters = tracker.stats();
  }

  // Let the healing queue converge once the selection stops generating new
  // damage (also covers timing-only runs, where the loop above never ran).
  if (monitor_ != nullptr) monitor_->drain();

  result.report = timing_->report(key, splits, cfg, faults_->node_speeds(),
                                  counters);
  result.report.retries = retries;
  result.report.lost_blocks = result.lost_block_ids.size();
  // Merge the loop's attempt counters over whatever the backend priced
  // (AnalyticBackend contributes timing_backups).
  result.report.attempts += counters;
  // Post-run DFS health, on clean and timing-only runs too: an
  // under-replicated seed layout is visible without injecting a fault, and
  // kills strand replicas until healing (inline or monitor) catches up.
  // MiniDfs maintains the count incrementally, so this is O(1) — no
  // post-run namespace scan (tests assert equality with dfs::fsck, whose
  // healthy-copy rule agrees while no copy is marked corrupt).
  result.report.under_replicated = dfs.under_replicated_count();
  if (monitor_ != nullptr) {
    const dfs::ReplicationMonitorStats& ms = monitor_->stats();
    result.report.recovery.healed_blocks = ms.healed_blocks;
    result.report.recovery.pending_repairs = ms.pending_repairs;
    result.report.recovery.mttr_ticks = ms.mttr_ticks;
    result.report.recovery.monitor_ticks = ms.ticks;
    result.report.recovery.scrubbed_replicas = ms.scrubbed_replicas;
    result.report.recovery.unrepairable = ms.unrepairable;
  }
  result.report.degraded = !result.lost_block_ids.empty() ||
                           result.report.attempts.degraded_tasks > 0;
  return result;
}

// ---- shared filtering kernel ----

namespace {

// Sink state for the scan kernels. The key scan hands over candidate lines
// (key field already matched byte-exact by the scanner), which still pay the
// full decode: it validates the timestamp before the line is kept. Kept
// records are counted with their encoded sizes, the FilterStats mapper's
// emits.
struct FilterSink {
  const std::string* key;
  std::string* out;
  mapred::SplitCensus census;

  void keep(std::string_view line, const workload::RecordView& rv) {
    out->append(line);
    out->push_back('\n');
    ++census.matched;
    // encoded_size() recounts the timestamp's digits, which the line holds
    // already unless its timestamp field carries leading zeros.
    const auto ts_field =
        static_cast<std::size_t>(rv.key.data() - line.data()) - 1;
    census.matched_bytes += line[0] == '0' && ts_field > 1
                                ? rv.encoded_size()
                                : line.size() + 1;
  }

  static void keep_candidate(void* ctx, std::string_view line) {
    auto& s = *static_cast<FilterSink*>(ctx);
    if (const auto rv = workload::decode_record(line); rv && rv->key == *s.key) {
      s.keep(line, *rv);
    }
  }

  // The reference: every non-empty line is decoded, and counted.
  static void decode_line(void* ctx, std::string_view line) {
    auto& s = *static_cast<FilterSink*>(ctx);
    const auto rv = workload::decode_record(line);
    if (!rv) {
      ++s.census.skipped;
      return;
    }
    ++s.census.records;
    if (rv->key == *s.key) s.keep(line, *rv);
  }
};

}  // namespace

mapred::SplitCensus filter_lines(std::string_view data, const std::string& key,
                                 std::string& out) {
  return filter_lines(data, key, out, common::active_scan_kernel());
}

mapred::SplitCensus filter_lines(std::string_view data, const std::string& key,
                                 std::string& out, common::ScanKernel kernel) {
  FilterSink sink{&key, &out, {}};
  const common::LineCensus lines = common::scan_key_lines(
      data, key, &sink, &FilterSink::keep_candidate, kernel);
  sink.census.records = lines.records;
  sink.census.skipped = lines.skipped;
  return sink.census;
}

mapred::SplitCensus filter_lines(std::string_view data, const std::string& key,
                                 std::string& out,
                                 const elasticmap::StripeTable* stripes,
                                 std::uint64_t key_bits,
                                 std::uint64_t& scanned,
                                 common::ScanKernel kernel) {
  if (stripes == nullptr || stripes->covered_bytes() != data.size()) {
    scanned += data.size();
    return filter_lines(data, key, out, kernel);
  }
  FilterSink sink{&key, &out, {}};
  const auto table = stripes->stripes();
  std::uint32_t begin = 0;  // start of stripe i
  for (std::size_t i = 0; i < table.size();) {
    if ((table[i].bloom & key_bits) != key_bits) {
      sink.census.records += table[i].records;
      sink.census.skipped += table[i].skipped;
      begin = table[i++].end;
      continue;
    }
    // Scan the maximal run of admitting stripes in one kernel call.
    std::size_t k = i + 1;
    while (k < table.size() && (table[k].bloom & key_bits) == key_bits) ++k;
    const std::uint32_t end = table[k - 1].end;
    const common::LineCensus lines =
        common::scan_key_lines(data.substr(begin, end - begin), key, &sink,
                               &FilterSink::keep_candidate, kernel);
    sink.census.records += lines.records;
    sink.census.skipped += lines.skipped;
    scanned += end - begin;
    begin = end;
    i = k;
  }
  return sink.census;
}

mapred::SplitCensus filter_lines_decode_all(std::string_view data,
                                            const std::string& key,
                                            std::string& out) {
  FilterSink sink{&key, &out, {}};
  common::scan_lines(data, &sink, &FilterSink::decode_line);
  return sink.census;
}

}  // namespace datanet::core
