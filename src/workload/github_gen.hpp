#pragma once
// GitHub-archive-shaped event log (paper ref [2], Section V-A-4). Twenty-plus
// event types with a realistic frequency mix. Unlike the movie dataset this
// stream has NO content clustering: every event type appears throughout the
// horizon. Imbalance comes instead from a slowly drifting per-type rate
// (mean-reverting random walk), reproducing Fig. 8a — the IssueEvent density
// per block fluctuates several-fold but is spread over all blocks.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "workload/record.hpp"

namespace datanet::workload {

struct GithubGenOptions {
  std::uint64_t num_records = 200'000;
  std::uint64_t horizon_seconds = 86400ull * 30;  // one month of events
  // Rate-drift strength: 0 = perfectly stationary mix, 1 = strong drift.
  double drift = 0.5;
  std::uint64_t num_repos = 5000;
  std::uint64_t seed = 4321;
};

// The canonical public GitHub event types.
[[nodiscard]] const std::vector<std::string>& github_event_types();

class GithubLogGenerator {
 public:
  explicit GithubLogGenerator(GithubGenOptions options);

  [[nodiscard]] std::vector<Record> generate() const;

  [[nodiscard]] const GithubGenOptions& options() const noexcept { return options_; }

 private:
  GithubGenOptions options_;
};

}  // namespace datanet::workload
