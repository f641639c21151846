#include "workload/github_gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "workload/text_gen.hpp"

namespace datanet::workload {

namespace {

// Baseline relative frequency of each event type, in github_event_types()'s
// order: a rough shape of the public archive, where pushes dominate over a
// long tail of rare administrative events.
const std::vector<double>& github_event_weights() {
  static const std::vector<double> kWeights = {
      52.0, 10.0, 8.0, 7.0, 4.5, 4.0, 3.5, 1.5, 1.2, 0.8, 0.7,
      0.6,  0.5,  0.4, 4.0, 0.3, 0.25, 0.2, 0.2, 0.15, 0.1, 0.1};
  return kWeights;
}

}  // namespace

const std::vector<std::string>& github_event_types() {
  static const std::vector<std::string> kTypes = {
      "PushEvent",          "CreateEvent",
      "IssueCommentEvent",  "WatchEvent",
      "IssuesEvent",        "PullRequestEvent",
      "ForkEvent",          "DeleteEvent",
      "PullRequestReviewCommentEvent",
      "GollumEvent",        "CommitCommentEvent",
      "ReleaseEvent",       "MemberEvent",
      "PublicEvent",        "IssueEvent",
      "LabelEvent",         "MilestoneEvent",
      "PageBuildEvent",     "StatusEvent",
      "DeploymentEvent",    "TeamAddEvent",
      "DownloadEvent"};
  return kTypes;
}

GithubLogGenerator::GithubLogGenerator(GithubGenOptions options)
    : options_(options) {
  if (options_.num_records == 0) throw std::invalid_argument("num_records == 0");
  if (options_.horizon_seconds == 0) throw std::invalid_argument("horizon == 0");
  if (options_.drift < 0.0 || options_.drift > 1.0) {
    throw std::invalid_argument("drift must be in [0,1]");
  }
}

std::vector<Record> GithubLogGenerator::generate() const {
  const auto& types = github_event_types();
  const auto& base = github_event_weights();
  common::Rng rng(options_.seed);
  const TextGenerator text(1500, 1.05);

  // Mean-reverting log-rate walk per type, advanced once per time slice
  // (~200 slices over the horizon), creating block-scale density waves.
  constexpr std::uint64_t kSlices = 200;
  std::vector<double> lograte(types.size(), 0.0);
  std::vector<std::vector<double>> slice_weights(kSlices,
                                                 std::vector<double>(types.size()));
  for (std::uint64_t s = 0; s < kSlices; ++s) {
    for (std::size_t t = 0; t < types.size(); ++t) {
      // OU-style update: pull to 0, Gaussian-ish kick via sum of uniforms.
      const double kick = (rng.uniform() + rng.uniform() + rng.uniform() - 1.5);
      lograte[t] = 0.9 * lograte[t] + options_.drift * 0.6 * kick;
      slice_weights[s][t] = base[t] * std::exp(lograte[t]);
    }
  }

  std::vector<Record> records;
  records.reserve(options_.num_records);
  for (std::uint64_t i = 0; i < options_.num_records; ++i) {
    // Timestamps uniform over the horizon — event order is arrival order.
    const std::uint64_t ts = rng.bounded(options_.horizon_seconds);
    const std::uint64_t slice = ts * kSlices / options_.horizon_seconds;

    const auto& w = slice_weights[slice];
    double total = 0.0;
    for (double x : w) total += x;
    double u = rng.uniform() * total;
    std::size_t type = 0;
    while (type + 1 < w.size() && u >= w[type]) {
      u -= w[type];
      ++type;
    }

    Record r;
    r.timestamp = ts;
    r.key = types[type];
    char repo[32];
    std::snprintf(repo, sizeof(repo), "repo_%06llu",
                  static_cast<unsigned long long>(rng.bounded(options_.num_repos)));
    r.payload = std::string("repo=") + repo + " actor=user_" +
                std::to_string(rng.bounded(100000)) + " body=\"" +
                text.sentence(rng, 4, 20) + "\"";
    records.push_back(std::move(r));
  }

  std::stable_sort(records.begin(), records.end(),
                   [](const Record& a, const Record& b) {
                     return a.timestamp < b.timestamp;
                   });
  return records;
}

}  // namespace datanet::workload
