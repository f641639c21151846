// Tests for the concentration metrics (content-clustering quantification),
// the HyperLogLog sketch, and the DistinctUsers analysis job.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "apps/distinct_users.hpp"
#include "bloom/hyperloglog.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "datanet/experiment.hpp"
#include "mapred/engine.hpp"
#include "stats/concentration.hpp"

namespace db = datanet::bloom;
namespace ds = datanet::stats;

// ---- concentration metrics ----

TEST(Concentration, GiniUniformIsZeroish) {
  const std::vector<double> even(100, 5.0);
  EXPECT_NEAR(ds::gini(std::span<const double>(even)), 0.0, 1e-12);
}

TEST(Concentration, GiniFullyConcentrated) {
  std::vector<double> xs(100, 0.0);
  xs[7] = 42.0;
  EXPECT_NEAR(ds::gini(std::span<const double>(xs)), 0.99, 1e-9);  // (n-1)/n
}

TEST(Concentration, GiniKnownValue) {
  // {1, 3} -> G = 1/4 by the standard formula.
  const std::vector<double> xs{1.0, 3.0};
  EXPECT_NEAR(ds::gini(std::span<const double>(xs)), 0.25, 1e-12);
}

TEST(Concentration, GiniEdgeCasesAndValidation) {
  EXPECT_DOUBLE_EQ(ds::gini(std::span<const double>{}), 0.0);
  const std::vector<double> one{5.0};
  EXPECT_DOUBLE_EQ(ds::gini(std::span<const double>(one)), 0.0);
  const std::vector<double> zeros(10, 0.0);
  EXPECT_DOUBLE_EQ(ds::gini(std::span<const double>(zeros)), 0.0);
  const std::vector<double> neg{1.0, -2.0};
  EXPECT_THROW((void)ds::gini(std::span<const double>(neg)), std::invalid_argument);
}

TEST(Concentration, EntropyUniformIsLogN) {
  const std::vector<double> even(16, 2.0);
  EXPECT_NEAR(ds::normalized_entropy(even), 1.0, 1e-12);
}

TEST(Concentration, EntropyPointMassIsZero) {
  std::vector<double> xs(8, 0.0);
  xs[0] = 10.0;
  EXPECT_DOUBLE_EQ(ds::normalized_entropy(xs), 0.0);
}

TEST(Concentration, RatioBasics) {
  const std::vector<std::uint64_t> xs{100, 1, 1, 1};
  EXPECT_NEAR(ds::concentration_ratio(xs, 0.25), 100.0 / 103.0, 1e-12);
  EXPECT_DOUBLE_EQ(ds::concentration_ratio(xs, 1.0), 1.0);
  EXPECT_THROW((void)ds::concentration_ratio(xs, 0.0), std::invalid_argument);
  EXPECT_THROW((void)ds::concentration_ratio(xs, 1.5), std::invalid_argument);
}

TEST(Concentration, ClusteredMovieBeatsGithubEvent) {
  // The movie sub-dataset (release-decay clustering) must measure as more
  // concentrated than the GitHub IssueEvent distribution (no clustering) —
  // the quantitative version of Fig. 1a vs Fig. 8a.
  datanet::core::ExperimentConfig cfg;
  cfg.num_nodes = 8;
  cfg.block_size = 16 * 1024;
  cfg.seed = 3;
  const auto movies = datanet::core::make_movie_dataset(cfg, 48, 300);
  const auto github = datanet::core::make_github_dataset(cfg, 48);

  const auto movie_dist = movies.truth->distribution(
      datanet::workload::subdataset_id(movies.hot_keys[0]));
  const auto issue_dist = github.truth->distribution(
      datanet::workload::subdataset_id("IssueEvent"));
  EXPECT_GT(ds::gini(std::span<const std::uint64_t>(movie_dist)),
            ds::gini(std::span<const std::uint64_t>(issue_dist)) + 0.2);
}

// ---- HyperLogLog ----

TEST(Hll, SmallExactViaLinearCounting) {
  db::HyperLogLog hll(12);
  for (std::uint64_t i = 0; i < 100; ++i) hll.insert(i);
  EXPECT_NEAR(hll.estimate(), 100.0, 3.0);
}

TEST(Hll, DuplicatesDoNotInflate) {
  db::HyperLogLog hll(12);
  for (int rep = 0; rep < 50; ++rep) {
    for (std::uint64_t i = 0; i < 200; ++i) hll.insert(i);
  }
  EXPECT_NEAR(hll.estimate(), 200.0, 6.0);
}

TEST(Hll, LargeCardinalityWithinErrorBound) {
  db::HyperLogLog hll(12);
  datanet::common::Rng rng(5);
  constexpr std::uint64_t kN = 500000;
  for (std::uint64_t i = 0; i < kN; ++i) hll.insert(rng());
  // 1.04/sqrt(4096) ~ 1.6%; allow 4 sigma.
  EXPECT_NEAR(hll.estimate(), static_cast<double>(kN), kN * 0.065);
}

TEST(Hll, PrecisionTradesMemoryForAccuracy) {
  db::HyperLogLog coarse(6), fine(14);
  EXPECT_LT(coarse.memory_bytes(), fine.memory_bytes());
  datanet::common::Rng rng(9);
  std::vector<std::uint64_t> keys(100000);
  for (auto& k : keys) k = rng();
  for (const auto k : keys) {
    coarse.insert(k);
    fine.insert(k);
  }
  const double err_coarse = std::fabs(coarse.estimate() - 100000.0);
  const double err_fine = std::fabs(fine.estimate() - 100000.0);
  EXPECT_LT(err_fine, err_coarse + 2000.0);
}

TEST(Hll, MergeEqualsUnion) {
  db::HyperLogLog a(12), b(12), u(12);
  datanet::common::Rng rng(11);
  for (int i = 0; i < 30000; ++i) {
    const auto k = rng();
    if (i % 3 == 0) {
      a.insert(k);
      u.insert(k);
    } else if (i % 3 == 1) {
      b.insert(k);
      u.insert(k);
    } else {  // shared keys
      a.insert(k);
      b.insert(k);
      u.insert(k);
    }
  }
  a.merge(b);
  EXPECT_NEAR(a.estimate(), u.estimate(), 1e-9);  // identical registers
}

TEST(Hll, MergeRejectsPrecisionMismatch) {
  db::HyperLogLog a(10), b(12);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Hll, SerializeRoundTrip) {
  db::HyperLogLog hll(10);
  datanet::common::Rng rng(13);
  for (int i = 0; i < 5000; ++i) hll.insert(rng());
  const auto bytes = hll.serialize();
  const auto back = db::HyperLogLog::deserialize(bytes);
  EXPECT_EQ(back.precision(), 10u);
  EXPECT_DOUBLE_EQ(back.estimate(), hll.estimate());
  EXPECT_THROW(db::HyperLogLog::deserialize("garbage"), std::invalid_argument);
  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_THROW(db::HyperLogLog::deserialize(truncated), std::invalid_argument);
}

TEST(Hll, RejectsBadPrecision) {
  EXPECT_THROW(db::HyperLogLog(3), std::invalid_argument);
  EXPECT_THROW(db::HyperLogLog(17), std::invalid_argument);
}

// ---- DistinctUsers job ----

namespace {
std::string user_block(std::initializer_list<std::pair<const char*, const char*>>
                           key_user_pairs) {
  std::string data;
  std::uint64_t ts = 0;
  for (const auto& [key, user] : key_user_pairs) {
    data += std::to_string(ts++) + "\t" + key + "\tclient=" + user + " x\n";
  }
  return data;
}
}  // namespace

TEST(DistinctUsers, CountsUniqueEntitiesPerKey) {
  const auto data = user_block({{"a", "u1"},
                                {"a", "u2"},
                                {"a", "u1"},
                                {"b", "u1"},
                                {"b", "u3"},
                                {"b", "u4"}});
  datanet::mapred::Engine engine({.num_nodes = 1});
  const auto report =
      engine.run(datanet::apps::make_distinct_users_job("client="),
                 {{.node = 0, .data = data, .charged_bytes = 0}});
  EXPECT_EQ(report.output.at("a"), "2");
  EXPECT_EQ(report.output.at("b"), "3");
}

TEST(DistinctUsers, MergesAcrossSplits) {
  const auto b1 = user_block({{"a", "u1"}, {"a", "u2"}});
  const auto b2 = user_block({{"a", "u2"}, {"a", "u3"}});
  datanet::mapred::Engine engine({.num_nodes = 2});
  const auto report =
      engine.run(datanet::apps::make_distinct_users_job("client="),
                 {{.node = 0, .data = b1, .charged_bytes = 0},
                  {.node = 1, .data = b2, .charged_bytes = 0}});
  EXPECT_EQ(report.output.at("a"), "3");  // u2 deduplicated across splits
}

TEST(DistinctUsers, SkipsRecordsWithoutField) {
  const std::string data = "1\ta\tno user here\n2\ta\tclient=u9 yes\n";
  datanet::mapred::Engine engine({.num_nodes = 1});
  const auto report =
      engine.run(datanet::apps::make_distinct_users_job("client="),
                 {{.node = 0, .data = data, .charged_bytes = 0}});
  EXPECT_EQ(report.output.at("a"), "1");
}

TEST(DistinctUsers, RejectsEmptyField) {
  EXPECT_THROW(datanet::apps::make_distinct_users_job(""),
               std::invalid_argument);
}

TEST(DistinctUsers, ApproximationOnLargeEntitySets) {
  // 5000 distinct users across two splits: the HLL estimate lands within a
  // few percent while shuffling only sketches.
  std::string b1, b2;
  for (int i = 0; i < 5000; ++i) {
    auto& dst = (i % 2) ? b1 : b2;
    dst += std::to_string(i) + "\tmovie\tclient=user" + std::to_string(i) + "\n";
  }
  datanet::mapred::Engine engine({.num_nodes = 2});
  const auto report =
      engine.run(datanet::apps::make_distinct_users_job("client="),
                 {{.node = 0, .data = b1, .charged_bytes = 0},
                  {.node = 1, .data = b2, .charged_bytes = 0}});
  const double est = std::stod(report.output.at("movie"));
  EXPECT_NEAR(est, 5000.0, 5000.0 * 0.07);
  // Shuffle volume bounded by sketch size, not event count.
  EXPECT_LT(report.shuffle_bytes, 3u * 4096u + 1024u);
}
