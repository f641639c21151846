#pragma once
// Dinic max-flow on an integer-capacity network. The paper (Section IV-B)
// notes that in a homogeneous cluster an optimal locality-preserving task
// assignment can be computed with the Ford–Fulkerson method; Dinic is the
// standard strongly polynomial refinement of that idea and is what we use
// for the FlowScheduler.

#include <cstdint>
#include <vector>

namespace datanet::graph {

class MaxFlow {
 public:
  explicit MaxFlow(std::uint32_t num_vertices);

  // Adds a directed edge u -> v with `capacity`; returns the edge index,
  // usable with flow_on() after solving.
  std::size_t add_edge(std::uint32_t u, std::uint32_t v, std::uint64_t capacity);

  // Computes max flow from s to t. May be called once per instance.
  std::uint64_t solve(std::uint32_t s, std::uint32_t t);

  // Flow routed through the edge returned by add_edge.
  [[nodiscard]] std::uint64_t flow_on(std::size_t edge_index) const;

 private:
  struct Edge {
    std::uint32_t to;
    std::uint64_t cap;       // residual capacity
    std::uint64_t original;  // initial capacity
    std::size_t rev;         // index of reverse edge in adj_[to]
  };

  bool bfs(std::uint32_t s, std::uint32_t t);
  std::uint64_t dfs(std::uint32_t v, std::uint32_t t, std::uint64_t pushed);

  std::vector<std::vector<Edge>> adj_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
  std::vector<std::pair<std::uint32_t, std::size_t>> edge_refs_;  // (u, idx in adj_[u])
};

}  // namespace datanet::graph
