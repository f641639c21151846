#pragma once
// Flow-based scheduler: precomputes the max-flow balanced assignment
// (graph::balanced_assignment — the paper's Ford–Fulkerson remark) at
// reset() and serves each node its precomputed queue through PlanQueues
// (own queue first, then a steal from the most-loaded remaining queue).

#include "scheduler/scheduler.hpp"

namespace datanet::scheduler {

class FlowScheduler final : public TaskScheduler {
 public:
  FlowScheduler() = default;

  void reset(const graph::BipartiteGraph& graph) override;
  std::optional<std::size_t> next_task(dfs::NodeId node) override;
  [[nodiscard]] std::string_view name() const override { return "maxflow"; }

  // The fractional capacity bound certified by the flow (before rounding).
  [[nodiscard]] std::uint64_t fractional_capacity() const noexcept {
    return fractional_capacity_;
  }

 private:
  PlanQueues plan_;
  std::uint64_t fractional_capacity_ = 0;
};

}  // namespace datanet::scheduler
