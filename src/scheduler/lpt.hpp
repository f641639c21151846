#pragma once
// Locality-constrained LPT (longest processing time first): a classic static
// makespan heuristic used as a second distribution-aware comparison point
// next to Algorithm 1 (request-driven greedy) and the max-flow optimum. At
// reset, blocks are sorted by weight descending and each is assigned to its
// least-loaded replica holder, or to the globally least-loaded node when
// every replica holder is already past the average (the same soft-locality
// idea as DataNetScheduler).
// Requests are served from the plan through PlanQueues.

#include "scheduler/scheduler.hpp"

namespace datanet::scheduler {

class LptScheduler final : public TaskScheduler {
 public:
  void reset(const graph::BipartiteGraph& graph) override;
  std::optional<std::size_t> next_task(dfs::NodeId node) override;
  [[nodiscard]] std::string_view name() const override { return "lpt"; }

  // Static per-node loads chosen at reset (before any requests).
  [[nodiscard]] const std::vector<std::uint64_t>& planned_loads() const noexcept {
    return planned_;
  }

 private:
  PlanQueues plan_;
  std::vector<std::uint64_t> planned_;
};

}  // namespace datanet::scheduler
