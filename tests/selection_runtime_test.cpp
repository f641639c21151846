// SelectionRuntime policy-seam properties: a zero-fault runtime is
// deterministic (bit-identical across repeated runs) for every scheduler on
// both datasets, an empty-plan FaultPolicy never changes any report field,
// reports are thread-count invariant, and the analytic backend's
// census-priced report equals the FilterStats job run through the engine
// over the same splits, clean and faulted. Plus unit coverage for the
// AttemptTracker state machine and the shared split/filter kernels.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/filter.hpp"
#include "datanet/experiment.hpp"
#include "datanet/selection_runtime.hpp"
#include "dfs/fault_injector.hpp"
#include "mapred/report_json.hpp"
#include "scheduler/datanet_sched.hpp"
#include "scheduler/flow_sched.hpp"
#include "scheduler/locality.hpp"
#include "scheduler/lpt.hpp"
#include "sim/selection_sim.hpp"

namespace dc = datanet::core;
namespace dfs = datanet::dfs;
namespace dm = datanet::mapred;
namespace dsch = datanet::scheduler;
namespace dsim = datanet::sim;

namespace {

dc::ExperimentConfig small_config() {
  dc::ExperimentConfig cfg;
  cfg.num_nodes = 8;
  cfg.block_size = 16 * 1024;
  cfg.seed = 5;
  return cfg;
}

// All four production schedulers, fresh instances per call.
std::vector<std::unique_ptr<dsch::TaskScheduler>> all_schedulers() {
  std::vector<std::unique_ptr<dsch::TaskScheduler>> v;
  v.push_back(std::make_unique<dsch::LocalityScheduler>(7));
  v.push_back(std::make_unique<dsch::LptScheduler>());
  v.push_back(std::make_unique<dsch::DataNetScheduler>());
  v.push_back(std::make_unique<dsch::FlowScheduler>());
  return v;
}

void expect_identical(const dc::SelectionResult& a, const dc::SelectionResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.assignment.block_to_node, b.assignment.block_to_node) << label;
  EXPECT_EQ(a.assignment.node_load, b.assignment.node_load) << label;
  EXPECT_EQ(a.assignment.node_input_bytes, b.assignment.node_input_bytes)
      << label;
  EXPECT_EQ(a.assignment.local_tasks, b.assignment.local_tasks) << label;
  EXPECT_EQ(a.assignment.remote_tasks, b.assignment.remote_tasks) << label;
  EXPECT_EQ(a.node_local_data, b.node_local_data) << label;
  EXPECT_EQ(a.node_filtered_bytes, b.node_filtered_bytes) << label;
  EXPECT_EQ(a.blocks_scanned, b.blocks_scanned) << label;
  EXPECT_EQ(a.lost_block_ids, b.lost_block_ids) << label;
  EXPECT_EQ(dm::report_to_json(a.report, /*include_output=*/true),
            dm::report_to_json(b.report, /*include_output=*/true))
      << label;
}

dc::SelectionResult runtime_clean(const dc::StoredDataset& ds,
                                  const std::string& key,
                                  dsch::TaskScheduler& sched,
                                  const dc::DataNet* net,
                                  const dc::ExperimentConfig& cfg) {
  dc::DirectReadPolicy read(*ds.dfs, cfg.remote_read_penalty);
  dc::NoFaults faults;
  dc::AnalyticBackend timing;
  return dc::SelectionRuntime(read, faults, timing)
      .run(*ds.dfs, ds.path, key, sched, net, cfg);
}

// The analytic backend, checked on every report against the oracle it
// replaced: the FilterStats job run through mapred::Engine over the very
// splits the runtime priced, with the same cost model and engine options.
class OracleCheckedBackend final : public dc::TimingBackend {
 public:
  explicit OracleCheckedBackend(std::string label) : label_(std::move(label)) {}

  dsch::AssignmentRecord assign(dsch::TaskScheduler& sched,
                                const datanet::graph::BipartiteGraph& graph,
                                const std::vector<std::uint64_t>& block_bytes)
      override {
    return analytic_.assign(sched, graph, block_bytes);
  }

  dm::JobReport report(const std::string& key,
                       const std::vector<dm::InputSplit>& splits,
                       const dc::ExperimentConfig& cfg,
                       const std::vector<double>& node_speeds,
                       const dm::AttemptCounters& attempts) override {
    dm::JobReport got =
        analytic_.report(key, splits, cfg, node_speeds, attempts);
    dm::Job job = datanet::apps::make_filter_stats_job(key);
    job.config.cost.time_scale = cfg.effective_time_scale();
    dm::EngineOptions opt;
    opt.num_nodes = cfg.num_nodes;
    opt.slots_per_node = cfg.slots_per_node;
    opt.execution_threads = cfg.execution_threads;
    opt.node_speed = node_speeds;
    opt.speculative = attempts.speculative_launched > 0;
    const dm::JobReport want = dm::Engine(opt).run(job, splits);
    EXPECT_EQ(dm::report_to_json(got, /*include_output=*/true),
              dm::report_to_json(want, /*include_output=*/true))
        << label_;
    const auto timings = [](const dm::JobReport& r) {
      std::vector<std::tuple<std::uint32_t, double, double>> v;
      for (const auto& t : r.map_tasks) {
        v.emplace_back(t.node, t.start, t.finish);
      }
      return v;
    };
    EXPECT_EQ(timings(got), timings(want)) << label_;
    EXPECT_EQ(got.reduce_task_seconds, want.reduce_task_seconds) << label_;
    ++reports;
    return got;
  }

  int reports = 0;

 private:
  std::string label_;
  dc::AnalyticBackend analytic_;
};

}  // namespace

// ---- determinism: repeated runs are byte-identical per scheduler ----

TEST(SelectionRuntime, RepeatedRunsIdenticalOnMovieAllSchedulers) {
  const auto cfg = small_config();
  const auto ds = dc::make_movie_dataset(cfg, 48, 300);
  const dc::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
  const std::string key = ds.hot_keys[0];
  for (const auto& sched : all_schedulers()) {
    auto fresh = all_schedulers();  // the rerun gets its own instances
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      if (fresh[i]->name() != sched->name()) continue;
      const auto first = runtime_clean(ds, key, *fresh[i], &net, cfg);
      const auto again = runtime_clean(ds, key, *sched, &net, cfg);
      expect_identical(again, first, std::string(sched->name()) + "/movie");
      // Clean runs dispatch exactly one attempt per task, nothing else.
      EXPECT_EQ(first.report.attempts.attempts, first.blocks_scanned);
      EXPECT_EQ(first.report.attempts.timeouts, 0u);
      EXPECT_EQ(first.report.attempts.redispatches, 0u);
      EXPECT_EQ(first.report.attempts.speculative_launched, 0u);
    }
  }
}

TEST(SelectionRuntime, RepeatedRunsIdenticalOnGithubBaselineAndNet) {
  const auto cfg = small_config();
  const auto ds = dc::make_github_dataset(cfg, 32);
  const dc::DataNet net(*ds.dfs, ds.path, {.alpha = 0.6});
  const std::string key = "IssueEvent";
  for (const dc::DataNet* net_ptr : {static_cast<const dc::DataNet*>(nullptr),
                                     &net}) {
    for (const auto& sched : all_schedulers()) {
      auto fresh = all_schedulers();
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        if (fresh[i]->name() != sched->name()) continue;
        const auto first = runtime_clean(ds, key, *fresh[i], net_ptr, cfg);
        const auto again = runtime_clean(ds, key, *sched, net_ptr, cfg);
        expect_identical(again, first,
                         std::string(sched->name()) +
                             (net_ptr ? "/github+net" : "/github-baseline"));
      }
    }
  }
}

// ---- property: an empty fault plan changes nothing ----

TEST(SelectionRuntime, EmptyFaultPlanIsInvisible) {
  auto cfg = small_config();
  const auto ds = dc::make_movie_dataset(cfg, 48, 300);
  const dc::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
  const std::string key = ds.hot_keys[0];

  // Injected faults with an empty plan, under either read policy, must come
  // out field-for-field equal to the NoFaults run, for every scheduler at 1
  // and 4 engine threads.
  for (const std::uint32_t threads : {1u, 4u}) {
    cfg.execution_threads = threads;
    auto clean_scheds = all_schedulers();
    for (auto& clean_sched : clean_scheds) {
      const auto clean = runtime_clean(ds, key, *clean_sched, &net, cfg);
      dc::DirectReadPolicy direct(*ds.dfs, cfg.remote_read_penalty);
      dc::ChecksumRetryReadPolicy checksum(*ds.dfs, cfg.remote_read_penalty);
      for (dc::ReplicaReadPolicy* read :
           {static_cast<dc::ReplicaReadPolicy*>(&direct),
            static_cast<dc::ReplicaReadPolicy*>(&checksum)}) {
        auto fresh = all_schedulers();
        for (auto& sched : fresh) {
          if (sched->name() != clean_sched->name()) continue;
          dfs::FaultInjector injector(*ds.dfs, {});
          dc::InjectedFaults faults(injector);
          dc::AnalyticBackend timing;
          const auto faulted = dc::SelectionRuntime(*read, faults, timing)
                                   .run(*ds.dfs, ds.path, key, *sched, &net, cfg);
          const std::string label =
              std::string(sched->name()) + "/threads=" +
              std::to_string(threads) +
              (read == &direct ? "/direct" : "/checksum-retry");
          expect_identical(faulted, clean, label);
          EXPECT_EQ(faulted.report.retries, 0u) << label;
          EXPECT_EQ(faulted.report.lost_blocks, 0u) << label;
          EXPECT_FALSE(faulted.report.degraded) << label;
        }
      }
    }
  }
}

// ---- property: reports are bit-identical at any engine thread count ----

TEST(SelectionRuntime, ThreadCountInvariance) {
  auto cfg = small_config();
  const auto ds = dc::make_movie_dataset(cfg, 48, 300);
  const dc::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
  const std::string key = ds.hot_keys[0];

  cfg.execution_threads = 1;
  dsch::DataNetScheduler s1;
  const auto one = runtime_clean(ds, key, s1, &net, cfg);
  cfg.execution_threads = 4;
  dsch::DataNetScheduler s4;
  const auto four = runtime_clean(ds, key, s4, &net, cfg);
  EXPECT_EQ(dm::report_to_json(one.report, true),
            dm::report_to_json(four.report, true));
}

// ---- the census-priced report equals the engine oracle ----

TEST(SelectionRuntime, AnalyticReportEqualsFilterStatsEngineRun) {
  struct Plan {
    const char* name;
    bool faulted;
    dc::AttemptOptions attempts;
    // Fault events for a freshly built dataset (blocks name its file).
    std::vector<dfs::FaultEvent> (*events)(const std::vector<dfs::BlockId>&);
  };
  dc::AttemptOptions patient;  // stalls park until speculation wins
  patient.timeout_ticks = 1000;
  const Plan plans[] = {
      {"clean", false, {}, nullptr},
      {"kill", true, {},
       [](const std::vector<dfs::BlockId>&) {
         return std::vector<dfs::FaultEvent>{
             {.at_task = 3, .kind = dfs::FaultKind::kKillNode, .node = 1}};
       }},
      {"stall+speculation", true, patient,
       [](const std::vector<dfs::BlockId>&) {
         return std::vector<dfs::FaultEvent>{
             {.at_task = 0, .kind = dfs::FaultKind::kStallNode, .node = 2}};
       }},
      {"transient", true, {},
       [](const std::vector<dfs::BlockId>& b) {
         return std::vector<dfs::FaultEvent>{
             {.at_task = 0, .kind = dfs::FaultKind::kTransientReadError,
              .block = b[0], .fail_count = 2},
             {.at_task = 2, .kind = dfs::FaultKind::kTransientReadError,
              .block = b[5], .fail_count = 1}};
       }},
      {"corrupt", true, {},
       [](const std::vector<dfs::BlockId>& b) {
         return std::vector<dfs::FaultEvent>{
             {.at_task = 0, .kind = dfs::FaultKind::kCorruptReplica, .node = 0,
              .block = b[1]},
             {.at_task = 0, .kind = dfs::FaultKind::kCorruptReplica, .node = 1,
              .block = b[4]},
             {.at_task = 0, .kind = dfs::FaultKind::kCorruptBlock,
              .block = b[7]}};
       }},
      {"slowdown", true, {},
       [](const std::vector<dfs::BlockId>&) {
         return std::vector<dfs::FaultEvent>{
             {.at_task = 0, .kind = dfs::FaultKind::kSlowNode, .node = 3,
              .speed_factor = 0.5}};
       }},
  };

  auto cfg = small_config();
  for (const std::uint32_t threads : {1u, 4u}) {
    cfg.execution_threads = threads;
    for (const bool fig8 : {false, true}) {
      for (const Plan& plan : plans) {
        for (std::size_t s = 0; s < all_schedulers().size(); ++s) {
          // Faults mutate the DFS: every run gets a fresh dataset.
          const auto ds = fig8 ? dc::make_github_dataset(cfg, 32)
                               : dc::make_movie_dataset(cfg, 48, 300);
          const dc::DataNet net(*ds.dfs, ds.path, {.alpha = fig8 ? 0.6 : 0.3});
          const std::string key = fig8 ? "IssueEvent" : ds.hot_keys[0];
          auto sched = std::move(all_schedulers()[s]);
          const std::string label =
              std::string(fig8 ? "fig8/" : "fig5/") + plan.name + "/" +
              std::string(sched->name()) + "/threads=" +
              std::to_string(threads);
          OracleCheckedBackend timing(label);
          dc::SelectionResult r;
          if (!plan.faulted) {
            dc::DirectReadPolicy read(*ds.dfs, cfg.remote_read_penalty);
            dc::NoFaults faults;
            r = dc::SelectionRuntime(read, faults, timing)
                    .run(*ds.dfs, ds.path, key, *sched, &net, cfg);
          } else {
            dfs::FaultInjector injector(
                *ds.dfs, plan.events(ds.dfs->blocks_of(ds.path)));
            dc::ChecksumRetryReadPolicy read(*ds.dfs, cfg.remote_read_penalty);
            dc::InjectedFaults faults(injector);
            r = dc::SelectionRuntime(read, faults, timing, plan.attempts)
                    .run(*ds.dfs, ds.path, key, *sched, &net, cfg);
          }
          EXPECT_EQ(timing.reports, 1) << label;
          EXPECT_GT(r.report.input_records, 0u) << label;
          if (std::string(plan.name) == "stall+speculation") {
            EXPECT_GT(r.report.attempts.speculative_launched, 0u) << label;
          }
        }
      }
    }
  }
}

// ---- an empty key is rejected, not read as "every key" ----

TEST(SelectionRuntime, EmptyKeyIsRejected) {
  const auto cfg = small_config();
  const auto ds = dc::make_movie_dataset(cfg, 8, 50);
  const dc::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
  for (const dc::DataNet* net_ptr :
       {static_cast<const dc::DataNet*>(nullptr), &net}) {
    dsch::DataNetScheduler sched;
    EXPECT_THROW((void)runtime_clean(ds, "", sched, net_ptr, cfg),
                 std::invalid_argument);
  }
}

// ---- config validation ----

TEST(SelectionRuntime, ValidateRejectsImpossibleConfigs) {
  const auto base = small_config();
  auto cfg = base;
  cfg.num_nodes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = base;
  cfg.block_size = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = base;
  cfg.slots_per_node = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = base;
  cfg.replication = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = base;
  cfg.replication = cfg.num_nodes + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(base.validate());
  // The dataset builders validate up front.
  auto bad = base;
  bad.replication = bad.num_nodes + 1;
  EXPECT_THROW(dc::make_movie_dataset(bad, 8, 50), std::invalid_argument);
}

// ---- event backend plugs into the same runtime ----

TEST(SelectionRuntime, EventBackendIsDeterministicAndFillsTiming) {
  const auto cfg = small_config();
  const auto ds = dc::make_movie_dataset(cfg, 48, 300);
  const dc::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
  const auto graph = net.scheduling_graph(ds.hot_keys[0]);

  dsim::SelectionSimOptions opt;
  opt.cluster.num_nodes = cfg.num_nodes;

  const auto run_once = [&] {
    dsim::EventSimBackend backend(*ds.dfs, opt);
    dc::DirectReadPolicy read(*ds.dfs, cfg.remote_read_penalty);
    dc::NoFaults faults;
    const dc::SelectionRuntime runtime(read, faults, backend);
    dsch::DataNetScheduler sched;
    auto result = runtime.run_graph(*ds.dfs, graph, ds.hot_keys[0], sched,
                                    cfg, /*materialize=*/false);
    return std::pair(std::move(result), backend.last_sim());
  };
  const auto [ra, sa] = run_once();
  const auto [rb, sb] = run_once();

  EXPECT_GT(sa.makespan, 0.0);
  EXPECT_EQ(sa.makespan, sb.makespan);
  EXPECT_EQ(sa.task_finish, sb.task_finish);
  EXPECT_EQ(sa.task_node, sb.task_node);
  EXPECT_EQ(ra.assignment.node_load, rb.assignment.node_load);
  EXPECT_EQ(ra.report.total_seconds, sa.makespan);
  EXPECT_EQ(ra.report.map_phase_seconds, sa.makespan);
  // Clean event runs never speculate.
  EXPECT_EQ(ra.report.attempts.speculative_launched, 0u);
}

// ---- AttemptTracker state machine ----

TEST(AttemptTracker, BackoffIsExponentialAndCapped) {
  dc::AttemptTracker tracker(1, dc::AttemptOptions{});
  EXPECT_EQ(tracker.backoff_delay(0), 0u);
  EXPECT_EQ(tracker.backoff_delay(1), 1u);
  EXPECT_EQ(tracker.backoff_delay(2), 2u);
  EXPECT_EQ(tracker.backoff_delay(3), 4u);
  EXPECT_EQ(tracker.backoff_delay(4), 8u);
  EXPECT_EQ(tracker.backoff_delay(5), 8u);    // capped
  EXPECT_EQ(tracker.backoff_delay(400), 8u);  // saturating shift, no overflow
}

TEST(AttemptTracker, TimeoutExpiryAndRedispatchLifecycle) {
  dc::AttemptOptions opt;
  opt.timeout_ticks = 4;
  dc::AttemptTracker tracker(2, opt);
  const auto a0 = tracker.dispatch(0, /*node=*/0);
  const auto a1 = tracker.dispatch(1, /*node=*/1);
  EXPECT_EQ(tracker.open_tasks(), 2u);

  // Attempt 0 parks (stalled node); attempt 1 completes normally.
  ASSERT_EQ(tracker.pop_ready(), a0);
  tracker.mark_running(a0);
  ASSERT_EQ(tracker.pop_ready(), a1);
  tracker.mark_running(a1);
  tracker.complete(a1);
  EXPECT_EQ(tracker.open_tasks(), 1u);
  EXPECT_FALSE(tracker.task_open(1));

  // Nothing ready; the clock jumps to a0's deadline and it expires.
  EXPECT_FALSE(tracker.pop_ready().has_value());
  const auto next = tracker.next_event_tick();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, opt.timeout_ticks);
  tracker.advance_to(*next);
  const auto expired = tracker.expire_due();
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], a0);
  EXPECT_EQ(tracker.attempt(a0).state, dc::AttemptState::kTimedOut);
  EXPECT_FALSE(tracker.has_live_attempt(0));
  EXPECT_TRUE(tracker.task_open(0));

  // Re-dispatch with backoff, complete, all counters consistent.
  const auto a2 = tracker.dispatch(0, /*node=*/2, tracker.backoff_delay(1));
  EXPECT_FALSE(tracker.pop_ready().has_value());  // still backing off
  tracker.advance_to(*tracker.next_event_tick());
  ASSERT_EQ(tracker.pop_ready(), a2);
  tracker.mark_running(a2);
  tracker.complete(a2);
  EXPECT_EQ(tracker.open_tasks(), 0u);
  EXPECT_EQ(tracker.stats().timeouts, 1u);
  EXPECT_EQ(tracker.stats().redispatches, 1u);
  EXPECT_EQ(tracker.stats().attempts, 3u);
}

TEST(AttemptTracker, SpeculativeWinSupersedesRival) {
  dc::AttemptTracker tracker(1, {});
  const auto primary = tracker.dispatch(0, /*node=*/0);
  ASSERT_EQ(tracker.pop_ready(), primary);
  tracker.mark_running(primary);
  const auto backup = tracker.dispatch(0, /*node=*/1, /*delay=*/0,
                                       /*speculative=*/true,
                                       /*counts_toward_cap=*/false);
  EXPECT_TRUE(tracker.speculated(0));
  EXPECT_EQ(tracker.live_attempts_of(0), 2u);
  ASSERT_EQ(tracker.pop_ready(), backup);
  tracker.mark_running(backup);
  tracker.complete(backup);
  EXPECT_EQ(tracker.attempt(backup).state, dc::AttemptState::kSucceeded);
  EXPECT_EQ(tracker.attempt(primary).state, dc::AttemptState::kSuperseded);
  EXPECT_EQ(tracker.stats().speculative_launched, 1u);
  EXPECT_EQ(tracker.stats().speculative_wins, 1u);
  EXPECT_EQ(tracker.open_tasks(), 0u);
}

TEST(AttemptTracker, AbandonDegradesAndReopenRestores) {
  dc::AttemptTracker tracker(1, {});
  const auto a = tracker.dispatch(0, 0);
  ASSERT_EQ(tracker.pop_ready(), a);
  tracker.mark_running(a);
  tracker.abandon(0);
  EXPECT_FALSE(tracker.task_open(0));
  EXPECT_EQ(tracker.stats().degraded_tasks, 1u);

  // A kill reaction can reopen a closed task for re-execution.
  tracker.reopen(0);
  EXPECT_TRUE(tracker.task_open(0));
  const auto b = tracker.dispatch(0, 1, /*delay=*/0, /*speculative=*/false,
                                  /*counts_toward_cap=*/false);
  ASSERT_EQ(tracker.pop_ready(), b);
  tracker.mark_running(b);
  tracker.complete(b);
  EXPECT_EQ(tracker.open_tasks(), 0u);
}

TEST(AttemptTracker, ValidateRejectsBadOptions) {
  dc::AttemptOptions opt;
  opt.timeout_ticks = 0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = {};
  opt.max_attempts = 0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
}

// ---- shared kernels ----

TEST(SplitAtRecordBoundaries, EdgeCases) {
  using datanet::mapred::split_at_record_boundaries;

  EXPECT_TRUE(split_at_record_boundaries("", 4).empty());

  const std::string one = "1\tk\tpayload\n";
  auto chunks = split_at_record_boundaries(one, 4);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], one);

  // pieces == 0 behaves like 1.
  chunks = split_at_record_boundaries(one, 0);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], one);

  // Multi-record data reassembles exactly and never splits mid-record.
  std::string data;
  for (int i = 0; i < 9; ++i) {
    data += std::to_string(i) + "\tkey" + std::to_string(i) + "\tpayload\n";
  }
  for (const std::uint32_t pieces : {1u, 2u, 3u, 8u, 100u}) {
    const auto parts = split_at_record_boundaries(data, pieces);
    std::string joined;
    for (const auto p : parts) {
      EXPECT_FALSE(p.empty());
      EXPECT_EQ(p.back(), '\n');
      joined.append(p);
    }
    EXPECT_EQ(joined, data) << "pieces=" << pieces;
  }

  // No trailing newline: the tail chunk keeps the partial last line intact.
  const std::string untailed = "1\ta\tx\n2\tb\ty";
  const auto parts = split_at_record_boundaries(untailed, 2);
  std::string joined;
  for (const auto p : parts) joined.append(p);
  EXPECT_EQ(joined, untailed);
}

TEST(FilterLines, FastPathMatchesFullDecode) {
  const std::string key = "ab";
  // Adversarial lines: prefix-of-key, key-is-prefix, malformed timestamps,
  // missing fields, empty key, key in payload position.
  const std::string data =
      "10\tab\tgood\n"
      "11\tabc\tlonger-key\n"
      "12\ta\tshorter-key\n"
      "xx\tab\tbad-timestamp\n"
      "13\tab\n"
      "14\t\tempty-key\n"
      "noTabs\n"
      "15\tzz\tab\n"
      "16\tab\t\n"
      "17\tab\ttrailing";
  std::string fast, slow;
  const auto fast_n = dc::filter_lines(data, key, fast);
  const auto slow_n = dc::filter_lines_decode_all(data, key, slow);
  EXPECT_EQ(fast, slow);
  EXPECT_EQ(fast_n, slow_n);
  // Sanity: the good lines actually survive. "13\tab" has no second tab and
  // must be dropped by both.
  EXPECT_NE(fast.find("10\tab\tgood"), std::string::npos);
  EXPECT_NE(fast.find("16\tab\t"), std::string::npos);
  EXPECT_EQ(fast.find("13\tab\n"), std::string::npos);
}

TEST(FilterLines, FastPathMatchesFullDecodeOnRealBlocks) {
  const auto cfg = small_config();
  const auto ds = dc::make_github_dataset(cfg, 16);
  for (const std::string key : {"IssueEvent", "PushEvent", "NoSuchEvent"}) {
    for (const auto bid : ds.dfs->blocks_of(ds.path)) {
      const auto data = ds.dfs->read_block(bid);
      std::string fast, slow;
      const auto fn = dc::filter_lines(data, key, fast);
      const auto sn = dc::filter_lines_decode_all(data, key, slow);
      EXPECT_EQ(fast, slow);
      EXPECT_EQ(fn, sn);
    }
  }
}
