#pragma once
// Locality-constrained LPT (longest processing time first): a classic static
// makespan heuristic used as a second distribution-aware comparison point
// next to Algorithm 1 (request-driven greedy) and the max-flow optimum. At
// reset, blocks are sorted by weight descending and each is assigned to its
// least-loaded replica holder; with a relocation allowance, a block may go
// to the globally least-loaded node when every replica holder is already
// past the average (the same soft-locality idea as DataNetScheduler).
// Requests are served from the plan through PlanQueues.

#include "scheduler/scheduler.hpp"

namespace datanet::scheduler {

struct LptSchedulerOptions {
  // Allow off-replica placement when every holder exceeds the average by
  // this fraction; negative disables relocation entirely (strict locality).
  double relocation_threshold = 0.0;
};

class LptScheduler final : public TaskScheduler {
 public:
  LptScheduler() = default;
  explicit LptScheduler(LptSchedulerOptions options) : options_(options) {}

  void reset(const graph::BipartiteGraph& graph) override;
  std::optional<std::size_t> next_task(dfs::NodeId node) override;
  [[nodiscard]] std::string_view name() const override { return "lpt"; }

  // Static per-node loads chosen at reset (before any requests).
  [[nodiscard]] const std::vector<std::uint64_t>& planned_loads() const noexcept {
    return planned_;
  }

 private:
  LptSchedulerOptions options_;
  PlanQueues plan_;
  std::vector<std::uint64_t> planned_;
};

}  // namespace datanet::scheduler
