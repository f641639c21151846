#pragma once
// Algorithm 1: Distribution-aware Algorithm for Balanced Computing over a
// sub-dataset s (Section IV-B).
//
//   W  = (sum_{b in tau1} |s ∩ b| + delta * |tau2|) / m      (average target)
//   on request from node i:
//     if d_i != {} : x = argmin_{x in d_i}  |W_i + |b_x ∩ s| - W|
//     else         : x = argmin_{x in T}    |W_i + |b_x ∩ s| - W|
//     assign t_x, remove b_x's edges from G
//
// Two modes:
//  * strict_locality = true — the paper's Algorithm 1 verbatim. A node
//    always takes a local block while any remains. With fewer heavy blocks
//    than replica spread allows, the end game can force heavy blocks onto
//    already-loaded replica holders while under-loaded nodes sit on local
//    scraps.
//  * strict_locality = false (default) — soft locality: every remaining
//    block competes on |W_i + w - W| and remote blocks pay an additive
//    penalty locality_bias * W. This keeps assignments overwhelmingly local
//    (the penalty dominates for comparable scores) but lets an under-loaded
//    node fetch a remote heavy block instead of hoarding local scraps — the
//    behaviour the paper's balanced Fig. 5c/10 results imply.
//
// Block weights come from the ElasticMap (Eq. 6 estimates); ground-truth
// weights can be injected for oracle experiments.

#include "scheduler/scheduler.hpp"

namespace datanet::scheduler {

struct DataNetSchedulerOptions {
  bool strict_locality = false;
  // Remote-assignment penalty as a fraction of the average workload W.
  double locality_bias = 0.25;
};

class DataNetScheduler final : public TaskScheduler {
 public:
  DataNetScheduler() = default;
  explicit DataNetScheduler(DataNetSchedulerOptions options)
      : options_(options) {}

  void reset(const graph::BipartiteGraph& graph) override;
  std::optional<std::size_t> next_task(dfs::NodeId node) override;
  [[nodiscard]] std::string_view name() const override {
    return options_.strict_locality ? "datanet-strict" : "datanet";
  }

  // Current simulated workload per node (the W_i values).
  [[nodiscard]] const std::vector<std::uint64_t>& node_workloads() const noexcept {
    return workload_;
  }
  [[nodiscard]] double average_target() const noexcept { return average_; }

 private:
  [[nodiscard]] double score(dfs::NodeId node, std::size_t block) const;
  [[nodiscard]] std::optional<std::size_t> next_task_strict(dfs::NodeId node);
  [[nodiscard]] std::optional<std::size_t> next_task_biased(dfs::NodeId node);
  void commit(dfs::NodeId node, std::size_t block);

  DataNetSchedulerOptions options_;
  const graph::BipartiteGraph* graph_ = nullptr;
  std::vector<bool> assigned_;
  std::vector<bool> local_to_;  // scratch: blocks local to the requester
  std::size_t remaining_ = 0;
  std::vector<std::uint64_t> workload_;  // W_i
  double average_ = 0.0;                 // W
  std::vector<std::vector<std::size_t>> local_;  // d_i (lazily compacted)
};

}  // namespace datanet::scheduler
