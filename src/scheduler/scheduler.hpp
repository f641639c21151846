#pragma once
// Pull-model task schedulers (Section IV-B). Workers request tasks one at a
// time, exactly like Hadoop task trackers heartbeating the JobTracker; a
// scheduler answers each request with a block index from the job's bipartite
// graph, or nothing when the task set T is exhausted.

#include <cstdint>
#include <deque>
#include <optional>
#include <string_view>
#include <vector>

#include "graph/bipartite.hpp"

namespace datanet::scheduler {

class TaskScheduler {
 public:
  virtual ~TaskScheduler() = default;

  // Bind to a job. `graph` must outlive the scheduler use.
  virtual void reset(const graph::BipartiteGraph& graph) = 0;

  // A worker on `node` requests its next task. Returns the chosen block
  // index (into graph.blocks()), or nullopt when no tasks remain.
  virtual std::optional<std::size_t> next_task(dfs::NodeId node) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;
};

// Per-node task queues for the static-plan schedulers (FlowScheduler,
// LptScheduler): reset() plans every block onto a node queue up front, and
// a request pops the front of the requester's own queue. Once that queue is
// empty the node steals the back (lightest-planned) task of the queue with
// the most pending weight, so the schedule stays work-conserving.
class PlanQueues {
 public:
  // Bind to `graph` with every queue empty.
  void reset(const graph::BipartiteGraph& graph);
  // Append block `block` to `node`'s queue.
  void push(dfs::NodeId node, std::size_t block);
  // Serve one request from `node`; nullopt once every queue is empty.
  [[nodiscard]] std::optional<std::size_t> next(dfs::NodeId node);

 private:
  const graph::BipartiteGraph* graph_ = nullptr;
  std::vector<std::deque<std::size_t>> queues_;
  std::vector<std::uint64_t> pending_weight_;
  std::size_t queued_ = 0;
};

// Summary of a completed assignment: which node ran each block, and the
// per-node byte loads (weights of assigned blocks) — the workload series
// plotted in Fig. 1b / 5c / 8b.
struct AssignmentRecord {
  std::vector<dfs::NodeId> block_to_node;  // index-aligned with graph.blocks()
  std::vector<std::uint64_t> node_load;    // bytes of sub-dataset per node
  std::vector<std::uint64_t> node_input_bytes;  // raw block bytes per node
  std::uint64_t local_tasks = 0;   // tasks served from a hosting node
  std::uint64_t remote_tasks = 0;  // tasks that required a remote read
};

// ---- the pull loop ----
// One implementation drives every analytic selection path
// (core::TimingBackend::assign's default calls it). Workers request in fair
// turns, like Hadoop task trackers heartbeating on a homogeneous cluster:
// nodes 0..N-1 ask in id order, cycling until the task set is exhausted.
// Every request, answered or not, passes the turn to the next node; a node
// whose request goes unanswered is asked again on its next turn (a later
// request may succeed). `block_bytes[j]` is the raw size of block j
// (node_input_bytes accounting). Throws std::logic_error if the scheduler
// returns an out-of-range or duplicate task, or leaves N requests in a row
// unanswered with tasks remaining (it stalled).
AssignmentRecord drain(TaskScheduler& sched, const graph::BipartiteGraph& graph,
                       const std::vector<std::uint64_t>& block_bytes);

// Deterministic failover choice for one task: the eligible replica holder
// with the least assigned input bytes (ties to the lowest node id), else the
// least-loaded eligible node. Returns graph.num_nodes() when nothing is
// eligible. Shared by reassign_stranded and the SelectionRuntime's attempt
// re-dispatch / speculation targeting, so every failure path picks the same
// node for the same state.
[[nodiscard]] dfs::NodeId pick_failover_node(const AssignmentRecord& rec,
                                             const graph::BipartiteGraph& graph,
                                             std::size_t task,
                                             const std::vector<bool>& eligible);

// Move one task's assignment to `target`, updating loads and locality
// counters in place (the bookkeeping half of a re-dispatch or a speculative
// win). No-op when the task already runs on `target`.
void move_task(AssignmentRecord& rec, const graph::BipartiteGraph& graph,
               const std::vector<std::uint64_t>& block_bytes, std::size_t task,
               dfs::NodeId target);

// Failure reaction (the JobTracker's lost-TaskTracker path): every block in
// `rec` assigned to a node with alive[n] == false is re-enqueued onto a
// surviving node — preferably an alive replica holder with the least
// assigned input bytes (ties to the lowest node id), else the least-loaded
// alive node. Loads and locality counters in `rec` are updated in place.
// Deterministic; returns the number of reassigned tasks. Throws
// std::runtime_error when no node is alive.
std::uint64_t reassign_stranded(AssignmentRecord& rec,
                                const graph::BipartiteGraph& graph,
                                const std::vector<std::uint64_t>& block_bytes,
                                const std::vector<bool>& alive);

}  // namespace datanet::scheduler
