// Tests for the failure-handling layer: the FaultInjector's deterministic
// plans (kill / corrupt / slow / stall / transient-read), the scheduler's
// lost-node reassignment, and the fault-aware SelectionRuntime — timeouts,
// backoff re-dispatch, speculative execution, the post-fault fsck invariant,
// and the acceptance property that a faulted run's JobReport is
// bit-identical for any engine thread count and scheduler.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "datanet/experiment.hpp"
#include "datanet/selection_runtime.hpp"
#include "dfs/fault_injector.hpp"
#include "dfs/fsck.hpp"
#include "dfs/mini_dfs.hpp"
#include "graph/bipartite.hpp"
#include "mapred/report_json.hpp"
#include "scheduler/datanet_sched.hpp"
#include "scheduler/flow_sched.hpp"
#include "scheduler/locality.hpp"
#include "scheduler/lpt.hpp"
#include "scheduler/scheduler.hpp"

namespace dc = datanet::core;
namespace dd = datanet::dfs;
namespace dg = datanet::graph;
namespace dm = datanet::mapred;
namespace dsch = datanet::scheduler;

namespace {

dc::ExperimentConfig small_cfg() {
  dc::ExperimentConfig cfg;
  cfg.num_nodes = 8;
  cfg.block_size = 16 * 1024;
  cfg.replication = 3;
  cfg.seed = 17;
  return cfg;
}

// Clean-path runtime run (DirectRead + NoFaults + Analytic).
dc::SelectionResult run_clean(const dd::MiniDfs& dfs, const std::string& path,
                              const std::string& key,
                              dsch::TaskScheduler& sched,
                              const dc::ExperimentConfig& cfg) {
  dc::DirectReadPolicy read(dfs, cfg.remote_read_penalty);
  dc::NoFaults faults;
  dc::AnalyticBackend timing;
  return dc::SelectionRuntime(read, faults, timing)
      .run(dfs, path, key, sched, nullptr, cfg);
}

// Fault-path runtime run (ChecksumRetry + InjectedFaults + Analytic).
dc::SelectionResult run_faulted(dd::MiniDfs& dfs, const std::string& path,
                                const std::string& key,
                                dsch::TaskScheduler& sched,
                                const dc::ExperimentConfig& cfg,
                                dd::FaultInjector& injector,
                                dc::AttemptOptions attempts = {}) {
  dc::ChecksumRetryReadPolicy read(dfs, cfg.remote_read_penalty);
  dc::InjectedFaults faults(injector);
  dc::AnalyticBackend timing;
  return dc::SelectionRuntime(read, faults, timing, attempts)
      .run(dfs, path, key, sched, nullptr, cfg);
}

}  // namespace

// ---- FaultInjector ----

TEST(FaultInjector, RandomPlanIsDeterministic) {
  const auto cfg = small_cfg();
  auto a = dc::make_movie_dataset(cfg, 16, 100);
  auto b = dc::make_movie_dataset(cfg, 16, 100);
  const auto fa = dd::FaultInjector::random_plan(*a.dfs, 99, 16, 2, 3, 1);
  const auto fb = dd::FaultInjector::random_plan(*b.dfs, 99, 16, 2, 3, 1);
  ASSERT_EQ(fa.plan().size(), fb.plan().size());
  for (std::size_t i = 0; i < fa.plan().size(); ++i) {
    EXPECT_EQ(fa.plan()[i].at_task, fb.plan()[i].at_task);
    EXPECT_EQ(fa.plan()[i].kind, fb.plan()[i].kind);
    EXPECT_EQ(fa.plan()[i].node, fb.plan()[i].node);
    EXPECT_EQ(fa.plan()[i].block, fb.plan()[i].block);
  }
}

TEST(FaultInjector, AdvanceFiresDueEventsOnceAndMonotonically) {
  const auto cfg = small_cfg();
  auto ds = dc::make_movie_dataset(cfg, 8, 80);
  dd::FaultInjector inj(*ds.dfs,
                        {{.at_task = 2, .kind = dd::FaultKind::kKillNode, .node = 1},
                         {.at_task = 5, .kind = dd::FaultKind::kKillNode, .node = 2}});
  EXPECT_TRUE(inj.advance(1).empty());
  const auto first = inj.advance(3);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].node, 1u);
  EXPECT_FALSE(ds.dfs->is_active(1));
  EXPECT_FALSE(inj.exhausted());
  EXPECT_TRUE(inj.advance(2).empty());  // going backwards fires nothing
  const auto second = inj.advance(100);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].node, 2u);
  EXPECT_TRUE(inj.exhausted());
  EXPECT_EQ(inj.stats().nodes_killed, 2u);
}

TEST(FaultInjector, NeverEmptiesTheCluster) {
  dc::ExperimentConfig cfg = small_cfg();
  cfg.num_nodes = 3;
  cfg.replication = 2;
  auto ds = dc::make_movie_dataset(cfg, 6, 60);
  auto inj = dd::FaultInjector::random_plan(*ds.dfs, 5, 10, /*kill_nodes=*/8, 0);
  (void)inj.advance(1000);
  EXPECT_TRUE(inj.exhausted());
  EXPECT_GE(ds.dfs->num_active_nodes(), 1u);
  EXPECT_LE(inj.stats().nodes_killed, 2u);
}

TEST(FaultInjector, RejectsBadEvents) {
  const auto cfg = small_cfg();
  auto ds = dc::make_movie_dataset(cfg, 4, 40);
  EXPECT_THROW(dd::FaultInjector(*ds.dfs, {{.at_task = 0,
                                            .kind = dd::FaultKind::kKillNode,
                                            .node = 99}}),
               std::invalid_argument);
  EXPECT_THROW(dd::FaultInjector(*ds.dfs, {{.at_task = 0,
                                            .kind = dd::FaultKind::kSlowNode,
                                            .node = 0,
                                            .speed_factor = 0.0}}),
               std::invalid_argument);
}

// ---- scheduler reaction ----

TEST(ReassignStranded, MovesDeadNodeTasksToAliveReplicaHolders) {
  const dg::BipartiteGraph graph(
      3, {dg::BlockVertex{.block_id = 0, .weight = 5, .hosts = {0, 1}},
          dg::BlockVertex{.block_id = 1, .weight = 7, .hosts = {1, 2}},
          dg::BlockVertex{.block_id = 2, .weight = 9, .hosts = {0, 2}}});
  const std::vector<std::uint64_t> bytes{10, 20, 30};
  dsch::AssignmentRecord rec;
  rec.block_to_node = {0, 0, 0};
  rec.node_load = {21, 0, 0};
  rec.node_input_bytes = {60, 0, 0};
  rec.local_tasks = 2;   // blocks 0 and 2 host node 0
  rec.remote_tasks = 1;  // block 1 does not

  const auto moved =
      dsch::reassign_stranded(rec, graph, bytes, {false, true, true});
  EXPECT_EQ(moved, 3u);
  // Every reassigned block lands on an alive replica holder: all local now.
  EXPECT_EQ(rec.local_tasks, 3u);
  EXPECT_EQ(rec.remote_tasks, 0u);
  EXPECT_EQ(rec.node_input_bytes[0], 0u);
  EXPECT_EQ(rec.node_input_bytes[1] + rec.node_input_bytes[2], 60u);
  EXPECT_EQ(rec.node_load[0], 0u);
  for (const auto n : rec.block_to_node) EXPECT_NE(n, 0u);

  EXPECT_THROW(
      dsch::reassign_stranded(rec, graph, bytes, {false, false, false}),
      std::runtime_error);
}

// ---- fault-aware selection harness ----

TEST(FaultedRun, NoFaultsMatchesCleanRun) {
  const auto cfg = small_cfg();
  auto ds = dc::make_movie_dataset(cfg, 24, 150);
  const auto& key = ds.hot_keys[0];

  dsch::LocalityScheduler clean_sched(7);
  const auto clean =
      run_clean(*ds.dfs, ds.path, key, clean_sched, cfg);

  dd::FaultInjector no_faults(*ds.dfs, {});
  dsch::LocalityScheduler faulted_sched(7);
  const auto faulted = run_faulted(*ds.dfs, ds.path, key, faulted_sched, cfg,
                                  no_faults);
  EXPECT_EQ(faulted.report.retries, 0u);
  EXPECT_EQ(faulted.report.lost_blocks, 0u);
  EXPECT_FALSE(faulted.report.degraded);
  EXPECT_EQ(faulted.report.output, clean.report.output);
  EXPECT_EQ(faulted.node_local_data, clean.node_local_data);
  EXPECT_EQ(dm::report_to_json(faulted.report, true),
            dm::report_to_json(faulted.report, true));
}

TEST(FaultedRun, KillNodeMidJobRetriesAndLosesNothing) {
  const auto cfg = small_cfg();
  auto ds = dc::make_movie_dataset(cfg, 24, 150);
  const auto& key = ds.hot_keys[0];

  dsch::LocalityScheduler clean_sched(7);
  const auto clean =
      run_clean(*ds.dfs, ds.path, key, clean_sched, cfg);

  // Kill the node that runs block 0 — the first task to complete — after a
  // third of the run: its pending tasks are reassigned and its completed
  // map outputs (at least block 0) are re-executed on survivors.
  const dd::NodeId victim = clean.assignment.block_to_node[0];
  dd::FaultInjector faults(
      *ds.dfs,
      {{.at_task = 8, .kind = dd::FaultKind::kKillNode, .node = victim}});
  dsch::LocalityScheduler faulted_sched(7);
  const auto faulted = run_faulted(*ds.dfs, ds.path, key, faulted_sched, cfg,
                                  faults);
  EXPECT_GT(faulted.report.retries, 0u);
  EXPECT_EQ(faulted.report.lost_blocks, 0u);
  EXPECT_FALSE(faulted.report.degraded);
  EXPECT_TRUE(faulted.lost_block_ids.empty());
  // With replication 3 and one dead node no data is lost: the job's reduced
  // output is exactly the fault-free output.
  EXPECT_EQ(faulted.report.output, clean.report.output);
  // Nothing remains assigned to the dead node, and it holds no data.
  for (const auto n : faulted.assignment.block_to_node) EXPECT_NE(n, victim);
  EXPECT_TRUE(faulted.node_local_data[victim].empty());
}

TEST(FaultedRun, ReportIsBitIdenticalAcrossThreadCounts) {
  // The dataset build and the drain are independent of execution_threads, so
  // probe once for the node that completes block 0 and kill it in every run.
  dd::NodeId victim;
  {
    const auto cfg = small_cfg();
    auto probe = dc::make_movie_dataset(cfg, 24, 150);
    const auto graph = dg::BipartiteGraph::content_blind(*probe.dfs, probe.path);
    std::vector<std::uint64_t> bytes(graph.num_blocks());
    for (std::size_t j = 0; j < graph.num_blocks(); ++j) {
      bytes[j] = probe.dfs->block(graph.block(j).block_id).size_bytes;
    }
    dsch::LocalityScheduler sched(7);
    victim = dsch::drain(sched, graph, bytes).block_to_node[0];
  }

  std::vector<std::string> jsons;
  for (const std::uint32_t threads : {1u, 4u}) {
    auto cfg = small_cfg();
    cfg.execution_threads = threads;
    auto ds = dc::make_movie_dataset(cfg, 24, 150);
    dd::FaultInjector faults(
        *ds.dfs,
        {{.at_task = 5, .kind = dd::FaultKind::kKillNode, .node = victim},
         {.at_task = 12, .kind = dd::FaultKind::kSlowNode,
          .node = static_cast<dd::NodeId>((victim + 1) % cfg.num_nodes),
          .speed_factor = 0.5}});
    dsch::LocalityScheduler sched(7);
    const auto r = run_faulted(*ds.dfs, ds.path, ds.hot_keys[0], sched, cfg,
                                faults);
    EXPECT_GT(r.report.retries, 0u);
    jsons.push_back(dm::report_to_json(r.report, /*include_output=*/true));
  }
  EXPECT_EQ(jsons[0], jsons[1]);
}

TEST(FaultedRun, CorruptReplicaRetriesOnSurvivingCopy) {
  const auto cfg = small_cfg();
  auto ds = dc::make_movie_dataset(cfg, 24, 150);
  const auto& key = ds.hot_keys[0];

  dsch::LocalityScheduler clean_sched(7);
  const auto clean =
      run_clean(*ds.dfs, ds.path, key, clean_sched, cfg);

  // Corrupt the copy on the exact node each of the first three blocks is
  // assigned to (the drain is deterministic, so precompute it), forcing the
  // local read to fail checksum and fall back to a surviving replica.
  const auto graph = dg::BipartiteGraph::content_blind(*ds.dfs, ds.path);
  std::vector<std::uint64_t> bytes(graph.num_blocks());
  for (std::size_t j = 0; j < graph.num_blocks(); ++j) {
    bytes[j] = ds.dfs->block(graph.block(j).block_id).size_bytes;
  }
  dsch::LocalityScheduler probe(7);
  const auto rec = dsch::drain(probe, graph, bytes);
  std::vector<dd::FaultEvent> plan;
  for (std::size_t j = 0; j < 3; ++j) {
    const auto bid = graph.block(j).block_id;
    const auto node = rec.block_to_node[j];
    if (!ds.dfs->is_local(bid, node)) continue;  // remote task: no local copy
    plan.push_back({.at_task = 0, .kind = dd::FaultKind::kCorruptReplica,
                    .node = node, .block = bid});
  }
  ASSERT_FALSE(plan.empty());
  const auto planned = plan.size();

  dd::FaultInjector faults(*ds.dfs, std::move(plan));
  dsch::LocalityScheduler faulted_sched(7);
  const auto faulted = run_faulted(*ds.dfs, ds.path, key, faulted_sched, cfg,
                                  faults);
  EXPECT_GE(faulted.report.retries, planned);
  EXPECT_EQ(faulted.report.lost_blocks, 0u);
  EXPECT_EQ(faulted.report.output, clean.report.output);
  EXPECT_EQ(faults.stats().replicas_corrupted, planned);
}

TEST(FaultedRun, MediaCorruptionLosesBlockButDegradesLoudly) {
  const auto cfg = small_cfg();
  auto ds = dc::make_movie_dataset(cfg, 24, 150);
  const auto& key = ds.hot_keys[0];
  const auto victim = ds.dfs->blocks_of(ds.path)[0];

  // Flip a byte of the logical block data: every replica fails checksum and
  // no healthy source exists — the block is unrecoverable.
  dd::FaultInjector faults(*ds.dfs, {{.at_task = 0,
                                      .kind = dd::FaultKind::kCorruptBlock,
                                      .block = victim}});
  dsch::LocalityScheduler sched(7);
  const auto r = run_faulted(*ds.dfs, ds.path, key, sched, cfg, faults);
  EXPECT_EQ(r.report.lost_blocks, 1u);
  EXPECT_TRUE(r.report.degraded);
  ASSERT_EQ(r.lost_block_ids.size(), 1u);
  EXPECT_EQ(r.lost_block_ids[0], victim);
  EXPECT_GT(r.report.retries, 0u);  // every replica was tried before giving up
  // The run still completes and produces output from the surviving blocks.
  EXPECT_FALSE(r.report.output.empty());
}

TEST(FaultedRun, SlowNodeStretchesSimulatedClock) {
  const auto cfg = small_cfg();
  auto ds = dc::make_movie_dataset(cfg, 24, 150);
  const auto& key = ds.hot_keys[0];

  dsch::LocalityScheduler clean_sched(7);
  const auto clean =
      run_clean(*ds.dfs, ds.path, key, clean_sched, cfg);

  dd::FaultInjector faults(*ds.dfs, {{.at_task = 0,
                                      .kind = dd::FaultKind::kSlowNode,
                                      .node = 0,
                                      .speed_factor = 0.25}});
  dsch::LocalityScheduler faulted_sched(7);
  const auto slow = run_faulted(*ds.dfs, ds.path, key, faulted_sched, cfg,
                                   faults);
  EXPECT_TRUE(faults.any_slowdown());
  EXPECT_DOUBLE_EQ(faults.node_speeds()[0], 0.25);
  EXPECT_EQ(slow.report.output, clean.report.output);  // timing-only fault
  EXPECT_GE(slow.report.total_seconds, clean.report.total_seconds);
}

// ---- straggler resilience (stall / transient / speculation) ----

TEST(StragglerRun, StalledNodesTimeOutAndFinishWithinRetryCap) {
  const auto cfg = small_cfg();
  auto ds = dc::make_movie_dataset(cfg, 24, 150);
  const auto& key = ds.hot_keys[0];

  dsch::LocalityScheduler clean_sched(7);
  const auto clean = run_clean(*ds.dfs, ds.path, key, clean_sched, cfg);

  // Two nodes accept tasks and never answer, from the very first dispatch.
  dd::FaultInjector faults(
      *ds.dfs, {{.at_task = 0, .kind = dd::FaultKind::kStallNode, .node = 1},
                {.at_task = 0, .kind = dd::FaultKind::kStallNode, .node = 4}});
  dsch::LocalityScheduler sched(7);
  const auto r = run_faulted(*ds.dfs, ds.path, key, sched, cfg, faults);

  EXPECT_EQ(faults.stats().nodes_stalled, 2u);
  // The run completes (no hang), nothing is lost, nothing is degraded: every
  // parked attempt timed out and was re-dispatched within the retry cap.
  EXPECT_GT(r.report.attempts.timeouts, 0u);
  EXPECT_GT(r.report.attempts.redispatches, 0u);
  EXPECT_EQ(r.report.attempts.degraded_tasks, 0u);
  EXPECT_EQ(r.report.lost_blocks, 0u);
  EXPECT_FALSE(r.report.degraded);
  EXPECT_EQ(r.report.output, clean.report.output);
  // Stalled nodes stay alive (distinguishable from a kill)...
  EXPECT_TRUE(ds.dfs->is_active(1));
  EXPECT_TRUE(ds.dfs->is_active(4));
  // ...but end the run with none of the filtered data.
  EXPECT_TRUE(r.node_local_data[1].empty());
  EXPECT_TRUE(r.node_local_data[4].empty());
}

TEST(StragglerRun, SpeculationCountersFireUnderStall) {
  const auto cfg = small_cfg();
  auto ds = dc::make_movie_dataset(cfg, 24, 150);

  // A generous timeout parks the stalled node's attempts long enough that
  // the drain-phase speculation trigger fires before any deadline expires.
  dc::AttemptOptions aopt;
  aopt.timeout_ticks = 1000;
  dd::FaultInjector faults(
      *ds.dfs, {{.at_task = 0, .kind = dd::FaultKind::kStallNode, .node = 2}});
  dsch::LocalityScheduler sched(7);
  const auto r = run_faulted(*ds.dfs, ds.path, ds.hot_keys[0], sched, cfg,
                             faults, aopt);
  EXPECT_GT(r.report.attempts.speculative_launched, 0u);
  EXPECT_GT(r.report.attempts.speculative_wins, 0u);
  EXPECT_EQ(r.report.attempts.degraded_tasks, 0u);
  EXPECT_FALSE(r.report.degraded);
  // The analytic backend priced the duplicates with the engine's backup pass.
  EXPECT_EQ(r.report.attempts.timeouts, 0u);  // nothing expired: spec won
}

TEST(StragglerRun, SpeculationOffStillCompletesViaTimeouts) {
  const auto cfg = small_cfg();
  auto ds = dc::make_movie_dataset(cfg, 24, 150);
  dc::AttemptOptions aopt;
  aopt.speculative = false;
  dd::FaultInjector faults(
      *ds.dfs, {{.at_task = 0, .kind = dd::FaultKind::kStallNode, .node = 2}});
  dsch::LocalityScheduler sched(7);
  const auto r = run_faulted(*ds.dfs, ds.path, ds.hot_keys[0], sched, cfg,
                             faults, aopt);
  EXPECT_EQ(r.report.attempts.speculative_launched, 0u);
  EXPECT_GT(r.report.attempts.timeouts, 0u);
  EXPECT_EQ(r.report.attempts.degraded_tasks, 0u);
  EXPECT_FALSE(r.report.degraded);
}

TEST(StragglerRun, TransientReadErrorsConvergeWithZeroDegradation) {
  const auto cfg = small_cfg();
  auto ds = dc::make_movie_dataset(cfg, 24, 150);
  const auto& key = ds.hot_keys[0];

  dsch::LocalityScheduler clean_sched(7);
  const auto clean = run_clean(*ds.dfs, ds.path, key, clean_sched, cfg);

  const auto blocks = ds.dfs->blocks_of(ds.path);
  dd::FaultInjector faults(
      *ds.dfs,
      {{.at_task = 0, .kind = dd::FaultKind::kTransientReadError,
        .block = blocks[0], .fail_count = 2},
       {.at_task = 0, .kind = dd::FaultKind::kTransientReadError,
        .block = blocks[3], .fail_count = 2}});
  dsch::LocalityScheduler sched(7);
  const auto r = run_faulted(*ds.dfs, ds.path, key, sched, cfg, faults);

  // Every armed failure was consumed, every retry eventually succeeded.
  EXPECT_EQ(faults.stats().transient_failures_consumed, 4u);
  EXPECT_EQ(r.report.attempts.transient_retries, 4u);
  EXPECT_EQ(r.report.attempts.degraded_tasks, 0u);
  EXPECT_EQ(r.report.lost_blocks, 0u);
  EXPECT_FALSE(r.report.degraded);
  EXPECT_EQ(r.report.output, clean.report.output);
}

TEST(StragglerRun, RetryCapDegradesLoudlyInsteadOfHanging) {
  const auto cfg = small_cfg();
  auto ds = dc::make_movie_dataset(cfg, 24, 150);
  // More transient failures than the attempt cap allows: the task degrades.
  dc::AttemptOptions aopt;
  aopt.max_attempts = 3;
  const auto blocks = ds.dfs->blocks_of(ds.path);
  dd::FaultInjector faults(
      *ds.dfs, {{.at_task = 0, .kind = dd::FaultKind::kTransientReadError,
                 .block = blocks[0], .fail_count = 50}});
  dsch::LocalityScheduler sched(7);
  const auto r = run_faulted(*ds.dfs, ds.path, ds.hot_keys[0], sched, cfg,
                             faults, aopt);
  EXPECT_EQ(r.report.attempts.degraded_tasks, 1u);
  EXPECT_TRUE(r.report.degraded);
  // Degradation is bounded: the rest of the run is intact.
  EXPECT_FALSE(r.report.output.empty());
}

TEST(StragglerRun, MixedPlanBitIdenticalAcrossSchedulersAndThreads) {
  // One seeded kill+stall+transient plan; every scheduler must produce a
  // bit-identical JSON report at 1 vs 4 engine threads.
  const auto make_sched = [](int which) -> std::unique_ptr<dsch::TaskScheduler> {
    switch (which) {
      case 0: return std::make_unique<dsch::LocalityScheduler>(7);
      case 1: return std::make_unique<dsch::DataNetScheduler>();
      case 2: return std::make_unique<dsch::FlowScheduler>();
      default: return std::make_unique<dsch::LptScheduler>();
    }
  };
  for (int which = 0; which < 4; ++which) {
    std::vector<std::string> jsons;
    for (const std::uint32_t threads : {1u, 4u}) {
      auto cfg = small_cfg();
      cfg.execution_threads = threads;
      auto ds = dc::make_movie_dataset(cfg, 24, 150);
      const auto blocks = ds.dfs->blocks_of(ds.path);
      dd::FaultInjector faults(
          *ds.dfs,
          {{.at_task = 0, .kind = dd::FaultKind::kTransientReadError,
            .block = blocks[1], .fail_count = 2},
           {.at_task = 3, .kind = dd::FaultKind::kStallNode, .node = 5},
           {.at_task = 6, .kind = dd::FaultKind::kKillNode, .node = 3}});
      auto sched = make_sched(which);
      const auto r = run_faulted(*ds.dfs, ds.path, ds.hot_keys[0], *sched,
                                 cfg, faults);
      EXPECT_EQ(r.report.attempts.degraded_tasks, 0u) << "scheduler " << which;
      jsons.push_back(dm::report_to_json(r.report, /*include_output=*/true));
    }
    EXPECT_EQ(jsons[0], jsons[1]) << "scheduler " << which;
  }
}

// ---- post-fault DFS invariants (fsck) ----

TEST(PostFaultFsck, CompletedKillRunLeavesNoMissingBlocks) {
  const auto cfg = small_cfg();
  auto ds = dc::make_movie_dataset(cfg, 24, 150);
  dd::FaultInjector faults(
      *ds.dfs, {{.at_task = 5, .kind = dd::FaultKind::kKillNode, .node = 2}});
  dsch::LocalityScheduler sched(7);
  const auto r = run_faulted(*ds.dfs, ds.path, ds.hot_keys[0], sched, cfg,
                             faults);
  const auto post = dd::check_post_fault_invariants(*ds.dfs);
  EXPECT_TRUE(post.ok) << post.violation;
  EXPECT_EQ(post.report.missing_blocks, 0u);
  // The report surfaces the DFS health alongside the run's own counters.
  EXPECT_EQ(r.report.under_replicated, post.report.under_replicated);
  const auto json = dm::report_to_json(r.report, false);
  EXPECT_NE(json.find("\"under_replicated\""), std::string::npos);
  EXPECT_NE(json.find("\"attempts\""), std::string::npos);
}

TEST(PostFaultFsck, ReplicationOneMayLoseDataButStaysOk) {
  auto cfg = small_cfg();
  cfg.replication = 1;
  auto ds = dc::make_movie_dataset(cfg, 24, 150);
  dd::FaultInjector faults(
      *ds.dfs, {{.at_task = 5, .kind = dd::FaultKind::kKillNode, .node = 2}});
  dsch::LocalityScheduler sched(7);
  const auto r = run_faulted(*ds.dfs, ds.path, ds.hot_keys[0], sched, cfg,
                             faults);
  const auto post = dd::check_post_fault_invariants(*ds.dfs);
  // Single-replica data on a killed node is legitimately gone; the invariant
  // helper allows it and the run reports the loss loudly instead of hanging.
  EXPECT_TRUE(post.ok) << post.violation;
  if (post.report.missing_blocks > 0) {
    EXPECT_TRUE(r.report.degraded);
    EXPECT_GT(r.report.lost_blocks + r.report.attempts.degraded_tasks, 0u);
  }
}
