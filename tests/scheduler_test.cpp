// Tests for the three schedulers: the Hadoop locality baseline, Algorithm 1
// (DataNet), and the max-flow scheduler — including the balance invariants
// the paper's Figures 1b/5c/10 rest on.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "scheduler/datanet_sched.hpp"
#include "scheduler/flow_sched.hpp"
#include "scheduler/locality.hpp"
#include "stats/descriptive.hpp"

namespace dsch = datanet::scheduler;
namespace dg = datanet::graph;

namespace {

// Clustered workload: `hot` blocks carry almost all of the sub-dataset.
// Keep `hot` comfortably above the node count — with fewer heavy atomic
// blocks than nodes, no scheduler can balance (some nodes must stay idle),
// which is outside the regime the paper's figures cover.
dg::BipartiteGraph clustered_graph(std::uint32_t nodes, std::size_t blocks,
                                   std::size_t hot, std::uint64_t seed) {
  datanet::common::Rng rng(seed);
  std::vector<dg::BlockVertex> bs;
  for (std::size_t j = 0; j < blocks; ++j) {
    dg::BlockVertex v;
    v.block_id = j;
    v.weight = j < hot ? 2000 + rng.bounded(8000) : rng.bounded(60);
    while (v.hosts.size() < 3) {
      const auto n = static_cast<datanet::dfs::NodeId>(rng.bounded(nodes));
      if (std::find(v.hosts.begin(), v.hosts.end(), n) == v.hosts.end()) {
        v.hosts.push_back(n);
      }
    }
    bs.push_back(std::move(v));
  }
  return dg::BipartiteGraph(nodes, std::move(bs));
}

std::vector<std::uint64_t> unit_bytes(const dg::BipartiteGraph& g) {
  return std::vector<std::uint64_t>(g.num_blocks(), 1 << 20);
}

std::vector<double> to_doubles(const std::vector<std::uint64_t>& v) {
  return {v.begin(), v.end()};
}

// Records every request. Answers the 1st, 3rd, 5th, ... request with the
// next task id until `answers` tasks went out, and nothing after that.
class RecordingScheduler final : public dsch::TaskScheduler {
 public:
  explicit RecordingScheduler(std::size_t answers) : answers_(answers) {}
  void reset(const dg::BipartiteGraph&) override {
    requests.clear();
    handed_out_ = 0;
  }
  std::optional<std::size_t> next_task(datanet::dfs::NodeId node) override {
    requests.push_back(node);
    if (requests.size() % 2 == 0 || handed_out_ == answers_) {
      return std::nullopt;
    }
    return handed_out_++;
  }
  [[nodiscard]] std::string_view name() const override { return "recording"; }

  std::vector<datanet::dfs::NodeId> requests;

 private:
  std::size_t answers_;
  std::size_t handed_out_ = 0;
};

}  // namespace

// ---- drain harness ----

TEST(Drain, AssignsEveryBlockExactlyOnce) {
  const auto g = clustered_graph(8, 64, 6, 3);
  dsch::LocalityScheduler sched(1);
  const auto rec = dsch::drain(sched, g, unit_bytes(g));
  EXPECT_EQ(rec.block_to_node.size(), 64u);
  EXPECT_EQ(rec.local_tasks + rec.remote_tasks, 64u);
  const auto total =
      std::accumulate(rec.node_load.begin(), rec.node_load.end(), 0ull);
  EXPECT_EQ(total, g.total_weight());
}

TEST(Drain, RejectsSizeMismatch) {
  const auto g = clustered_graph(4, 16, 2, 3);
  dsch::LocalityScheduler sched(1);
  std::vector<std::uint64_t> wrong(3, 1);
  EXPECT_THROW(dsch::drain(sched, g, wrong), std::invalid_argument);
}

TEST(Drain, InputBytesAccounted) {
  const auto g = clustered_graph(4, 16, 2, 9);
  dsch::LocalityScheduler sched(2);
  const auto rec = dsch::drain(sched, g, unit_bytes(g));
  const auto total = std::accumulate(rec.node_input_bytes.begin(),
                                     rec.node_input_bytes.end(), 0ull);
  EXPECT_EQ(total, 16ull << 20);
}

// ---- locality scheduler ----

TEST(Drain, RequestsCycleNodesInIdOrder) {
  // Three nodes, five blocks. Every request passes the turn, answered or
  // not, so nodes ask 0, 1, 2, 0, 1, 2, ... until the task set is empty.
  std::vector<dg::BlockVertex> bs;
  for (std::size_t j = 0; j < 5; ++j) {
    bs.push_back({.block_id = j, .weight = 1, .hosts = {0}});
  }
  const dg::BipartiteGraph g(3, std::move(bs));
  const std::vector<std::uint64_t> bytes(5, 1);
  RecordingScheduler sched(5);
  const auto rec = dsch::drain(sched, g, bytes);
  EXPECT_EQ(sched.requests,
            (std::vector<datanet::dfs::NodeId>{0, 1, 2, 0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(rec.block_to_node,
            (std::vector<datanet::dfs::NodeId>{0, 2, 1, 0, 2}));

  // Two tasks go out, then three requests in a row (one per node) find
  // nothing with tasks remaining: the scheduler stalled.
  RecordingScheduler stalls(2);
  EXPECT_THROW((void)dsch::drain(stalls, g, bytes), std::logic_error);
  EXPECT_EQ(stalls.requests,
            (std::vector<datanet::dfs::NodeId>{0, 1, 2, 0, 1, 2}));
}

TEST(Locality, MostTasksAreLocal) {
  const auto g = clustered_graph(8, 128, 10, 5);
  dsch::LocalityScheduler sched(7);
  const auto rec = dsch::drain(sched, g, unit_bytes(g));
  // With 3 replicas on 8 nodes and fair round-robin requests, the vast
  // majority of assignments should be replica-local.
  EXPECT_GT(rec.local_tasks, 100u);
}

TEST(Locality, BlockCountsRoughlyEven) {
  const auto g = clustered_graph(8, 128, 10, 6);
  dsch::LocalityScheduler sched(8);
  const auto rec = dsch::drain(sched, g, unit_bytes(g));
  std::vector<int> counts(8, 0);
  for (const auto n : rec.block_to_node) ++counts[n];
  const auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LE(*mx - *mn, 4);  // fair request order => near-equal task counts
}

TEST(Locality, ContentBlindSchedulingIsImbalanced) {
  // The motivating observation (Fig. 1b): with clustered content, locality
  // scheduling yields a wide max/min spread in sub-dataset bytes per node.
  const auto g = clustered_graph(16, 256, 48, 11);
  dsch::LocalityScheduler sched(3);
  const auto rec = dsch::drain(sched, g, unit_bytes(g));
  const auto s = datanet::stats::summarize(to_doubles(rec.node_load));
  EXPECT_GT(s.max_over_mean(), 1.6);
}

TEST(Locality, DeterministicForSeed) {
  const auto g = clustered_graph(8, 64, 6, 13);
  dsch::LocalityScheduler a(42), b(42);
  const auto ra = dsch::drain(a, g, unit_bytes(g));
  const auto rb = dsch::drain(b, g, unit_bytes(g));
  EXPECT_EQ(ra.block_to_node, rb.block_to_node);
}

TEST(Locality, ResetsCleanlyBetweenJobs) {
  const auto g = clustered_graph(8, 64, 6, 14);
  dsch::LocalityScheduler sched(42);
  const auto ra = dsch::drain(sched, g, unit_bytes(g));
  const auto rb = dsch::drain(sched, g, unit_bytes(g));
  EXPECT_EQ(ra.block_to_node, rb.block_to_node);  // seed re-applied on reset
}

// ---- DataNet scheduler (Algorithm 1) ----

TEST(DataNetSched, BalancesClusteredWorkload) {
  const auto g = clustered_graph(16, 256, 48, 11);
  dsch::DataNetScheduler sched;
  const auto rec = dsch::drain(sched, g, unit_bytes(g));
  const auto s = datanet::stats::summarize(to_doubles(rec.node_load));
  // Fig. 10 regime: max ~0.9..1.3 of mean, min >= ~0.5 of mean.
  EXPECT_LT(s.max_over_mean(), 1.35);
  EXPECT_GT(s.min_over_mean(), 0.5);
}

TEST(DataNetSched, MuchBetterThanLocalityOnClusteredData) {
  const auto g = clustered_graph(16, 256, 48, 19);
  dsch::LocalityScheduler base(3);
  dsch::DataNetScheduler dn;
  const auto rb = dsch::drain(base, g, unit_bytes(g));
  const auto rd = dsch::drain(dn, g, unit_bytes(g));
  const auto sb = datanet::stats::summarize(to_doubles(rb.node_load));
  const auto sd = datanet::stats::summarize(to_doubles(rd.node_load));
  EXPECT_LT(sd.coeff_variation(), 0.6 * sb.coeff_variation());
}

TEST(DataNetSched, TracksNodeWorkloads) {
  const auto g = clustered_graph(8, 64, 6, 23);
  dsch::DataNetScheduler sched;
  const auto rec = dsch::drain(sched, g, unit_bytes(g));
  EXPECT_EQ(sched.node_workloads(), rec.node_load);
  EXPECT_NEAR(sched.average_target(),
              static_cast<double>(g.total_weight()) / 8.0, 1e-9);
}

TEST(DataNetSched, PrefersLocalBlocks) {
  const auto g = clustered_graph(8, 128, 8, 29);
  dsch::DataNetScheduler sched;
  const auto rec = dsch::drain(sched, g, unit_bytes(g));
  EXPECT_GT(rec.local_tasks, rec.remote_tasks);
}

TEST(DataNetSched, DeterministicAcrossRuns) {
  const auto g = clustered_graph(8, 64, 6, 31);
  dsch::DataNetScheduler a, b;
  EXPECT_EQ(dsch::drain(a, g, unit_bytes(g)).block_to_node,
            dsch::drain(b, g, unit_bytes(g)).block_to_node);
}

TEST(DataNetSched, UniformWeightsStayUniform) {
  // Sanity: when content is NOT clustered, Algorithm 1 keeps the balance.
  datanet::common::Rng rng(37);
  std::vector<dg::BlockVertex> bs;
  for (std::size_t j = 0; j < 64; ++j) {
    dg::BlockVertex v;
    v.block_id = j;
    v.weight = 100;
    while (v.hosts.size() < 3) {
      const auto n = static_cast<datanet::dfs::NodeId>(rng.bounded(8));
      if (std::find(v.hosts.begin(), v.hosts.end(), n) == v.hosts.end()) {
        v.hosts.push_back(n);
      }
    }
    bs.push_back(std::move(v));
  }
  const dg::BipartiteGraph g(8, bs);
  dsch::DataNetScheduler sched;
  const auto rec = dsch::drain(sched, g, unit_bytes(g));
  const auto [mn, mx] =
      std::minmax_element(rec.node_load.begin(), rec.node_load.end());
  EXPECT_EQ(*mx, *mn);  // 8 blocks of weight 100 each
}

TEST(DataNetSched, NoTasksReturnsNullopt) {
  const dg::BipartiteGraph g(4, {});
  dsch::DataNetScheduler sched;
  sched.reset(g);
  EXPECT_FALSE(sched.next_task(0));
}

TEST(DataNetSched, RequestBeforeResetIsSafe) {
  dsch::DataNetScheduler sched;
  EXPECT_FALSE(sched.next_task(0));
}

// ---- flow scheduler ----

TEST(FlowSched, BalancesAtLeastAsWellAsGreedy) {
  const auto g = clustered_graph(16, 256, 48, 41);
  dsch::DataNetScheduler greedy;
  dsch::FlowScheduler flow;
  const auto rg = dsch::drain(greedy, g, unit_bytes(g));
  const auto rf = dsch::drain(flow, g, unit_bytes(g));
  const auto mg = *std::max_element(rg.node_load.begin(), rg.node_load.end());
  const auto mf = *std::max_element(rf.node_load.begin(), rf.node_load.end());
  // Allow small slack: drain()'s request order can trigger stealing.
  EXPECT_LE(static_cast<double>(mf), 1.15 * static_cast<double>(mg));
}

TEST(FlowSched, CertifiesFractionalCapacity) {
  const auto g = clustered_graph(8, 64, 4, 43);
  dsch::FlowScheduler sched;
  sched.reset(g);
  const double ideal =
      static_cast<double>(g.total_weight()) / static_cast<double>(8);
  EXPECT_GE(sched.fractional_capacity(), static_cast<std::uint64_t>(ideal));
}

TEST(FlowSched, AssignsEverything) {
  const auto g = clustered_graph(8, 96, 8, 47);
  dsch::FlowScheduler sched;
  const auto rec = dsch::drain(sched, g, unit_bytes(g));
  const auto total =
      std::accumulate(rec.node_load.begin(), rec.node_load.end(), 0ull);
  EXPECT_EQ(total, g.total_weight());
}

// Property sweep: Algorithm 1's balance holds across cluster/dataset sizes.
class DataNetBalanceSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::size_t>> {};

TEST_P(DataNetBalanceSweep, CoefficientOfVariationSmall) {
  const auto [nodes, blocks] = GetParam();
  const auto g = clustered_graph(nodes, blocks, std::max<std::size_t>(blocks / 4, std::size_t{nodes} * 2),
                                 nodes * 131 + blocks);
  dsch::DataNetScheduler sched;
  const auto rec = dsch::drain(sched, g, unit_bytes(g));
  const auto s = datanet::stats::summarize(to_doubles(rec.node_load));
  EXPECT_LT(s.coeff_variation(), 0.35)
      << nodes << " nodes / " << blocks << " blocks";
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DataNetBalanceSweep,
    ::testing::Combine(::testing::Values<std::uint32_t>(4, 16, 32),
                       ::testing::Values<std::size_t>(64, 256, 512)));
