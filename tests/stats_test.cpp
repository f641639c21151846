// Tests for the statistics substrate: incomplete gamma, GammaDistribution
// (the Section II-B workload model), descriptive stats, Zipf, histograms.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "stats/descriptive.hpp"
#include "stats/gamma.hpp"
#include "stats/histogram.hpp"
#include "stats/zipf.hpp"

namespace ds = datanet::stats;

// ---- regularized incomplete gamma ----

TEST(IncGamma, BoundaryValues) {
  EXPECT_DOUBLE_EQ(ds::regularized_gamma_p(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ds::regularized_gamma_q(1.0, 0.0), 1.0);
}

TEST(IncGamma, ExponentialSpecialCase) {
  // For a = 1, P(1, x) = 1 - e^{-x}.
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    EXPECT_NEAR(ds::regularized_gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
}

TEST(IncGamma, ChiSquareKnownValue) {
  // Chi-square with 2k dof: P(k, x/2). chi2 CDF at median ~ 0.5.
  // P(0.5, 0.2275) ≈ 0.5 (chi2_1 median ≈ 0.4549).
  EXPECT_NEAR(ds::regularized_gamma_p(0.5, 0.45494 / 2.0), 0.5, 1e-4);
}

TEST(IncGamma, PPlusQIsOne) {
  for (double a : {0.3, 1.2, 4.5, 20.0}) {
    for (double x : {0.01, 0.5, 1.0, 3.0, 10.0, 50.0}) {
      EXPECT_NEAR(ds::regularized_gamma_p(a, x) + ds::regularized_gamma_q(a, x),
                  1.0, 1e-12);
    }
  }
}

TEST(IncGamma, MonotoneInX) {
  double prev = -1.0;
  for (double x = 0.0; x <= 20.0; x += 0.5) {
    const double p = ds::regularized_gamma_p(3.0, x);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(IncGamma, RejectsBadArgs) {
  EXPECT_THROW((void)ds::regularized_gamma_p(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)ds::regularized_gamma_p(1.0, -1.0), std::invalid_argument);
  EXPECT_THROW((void)ds::regularized_gamma_q(-2.0, 1.0), std::invalid_argument);
}

// ---- GammaDistribution ----

TEST(GammaDist, MomentsMatchParameters) {
  const ds::GammaDistribution g(1.2, 7.0);  // the paper's Figure 2 parameters
  EXPECT_DOUBLE_EQ(g.mean(), 8.4);
  EXPECT_DOUBLE_EQ(g.variance(), 1.2 * 49.0);
}

TEST(GammaDist, RejectsBadParameters) {
  EXPECT_THROW(ds::GammaDistribution(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ds::GammaDistribution(1.0, -1.0), std::invalid_argument);
}

TEST(GammaDist, PdfIntegratesToCdf) {
  const ds::GammaDistribution g(2.5, 3.0);
  // Trapezoidal integration of the pdf should match the cdf.
  double integral = 0.0;
  const double dx = 0.01;
  double prev = g.pdf(0.0);
  for (double x = dx; x <= 15.0 + 1e-12; x += dx) {
    const double cur = g.pdf(x);
    integral += 0.5 * (prev + cur) * dx;
    prev = cur;
  }
  EXPECT_NEAR(integral, g.cdf(15.0), 1e-4);
}

TEST(GammaDist, PdfZeroForNegative) {
  const ds::GammaDistribution g(2.0, 1.0);
  EXPECT_DOUBLE_EQ(g.pdf(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(g.cdf(-1.0), 0.0);
}

TEST(GammaDist, ExponentialCdfSpecialCase) {
  const ds::GammaDistribution g(1.0, 2.0);  // Exp(mean 2)
  EXPECT_NEAR(g.cdf(2.0), 1.0 - std::exp(-1.0), 1e-12);
}

TEST(GammaDist, QuantileInvertsCdf) {
  const ds::GammaDistribution g(1.2, 7.0);
  for (double p : {0.01, 0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(g.cdf(g.quantile(p)), p, 1e-9);
  }
}

TEST(GammaDist, QuantileRejectsBadP) {
  const ds::GammaDistribution g(1.0, 1.0);
  EXPECT_THROW((void)g.quantile(0.0), std::invalid_argument);
  EXPECT_THROW((void)g.quantile(1.0), std::invalid_argument);
}

TEST(GammaDist, SampleMeanAndVariance) {
  const ds::GammaDistribution g(1.2, 7.0);
  datanet::common::Rng rng(99);
  constexpr int kN = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = g.sample(rng);
    EXPECT_GE(x, 0.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / kN;
  const double var = sumsq / kN - mean * mean;
  EXPECT_NEAR(mean, g.mean(), 0.1);
  EXPECT_NEAR(var, g.variance(), 2.0);
}

TEST(GammaDist, SampleSmallShape) {
  const ds::GammaDistribution g(0.5, 2.0);
  datanet::common::Rng rng(123);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += g.sample(rng);
  EXPECT_NEAR(sum / kN, 1.0, 0.05);
}

TEST(GammaDist, SampleMatchesCdfKS) {
  // Crude Kolmogorov–Smirnov check: empirical CDF within 2% of analytic.
  const ds::GammaDistribution g(2.0, 3.0);
  datanet::common::Rng rng(7);
  constexpr int kN = 20000;
  std::vector<double> xs(kN);
  for (auto& x : xs) x = g.sample(rng);
  std::sort(xs.begin(), xs.end());
  double max_dev = 0.0;
  for (int i = 0; i < kN; i += 100) {
    const double emp = static_cast<double>(i) / kN;
    max_dev = std::max(max_dev, std::fabs(emp - g.cdf(xs[i])));
  }
  EXPECT_LT(max_dev, 0.02);
}

// ---- node workload distribution (Section II-B) ----

TEST(NodeWorkload, ShapeScalesWithBlocksPerNode) {
  const auto z = ds::node_workload_distribution(1.2, 7.0, 512, 32);
  EXPECT_DOUBLE_EQ(z.shape(), 1.2 * 512 / 32);
  EXPECT_DOUBLE_EQ(z.scale(), 7.0);
  // E(Z) = nk\theta/m, independent decomposition sanity.
  EXPECT_DOUBLE_EQ(z.mean(), 512 * 1.2 * 7.0 / 32);
}

TEST(NodeWorkload, ImbalanceProbabilityGrowsWithClusterSize) {
  // The core claim of Figure 2: P(Z < E(Z)/2) increases with m.
  double prev = 0.0;
  for (std::uint64_t m : {2, 8, 32, 128, 512}) {
    const auto z = ds::node_workload_distribution(1.2, 7.0, 512, m);
    const double p = z.cdf(0.5 * z.mean());
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(NodeWorkload, OverloadProbabilityGrowsWithClusterSize) {
  double prev = 0.0;
  for (std::uint64_t m : {2, 8, 32, 128, 512}) {
    const auto z = ds::node_workload_distribution(1.2, 7.0, 512, m);
    const double p = z.sf(2.0 * z.mean());
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(NodeWorkload, PaperExpectedCounts) {
  // Section II-B example: m = 128, n = 512, k = 1.2, theta = 7. The paper
  // quotes "3.9 and 1.5" for nodes below E/2 and E/3 and "4.0" above 2E.
  // Exact Gamma(nk/m, theta) arithmetic gives 3.9 nodes below E/3 and 4.0
  // above 2E (the paper's E/2 pairing appears shifted by one threshold); we
  // assert the values our model actually produces and the qualitative
  // ordering the section argues.
  const auto z = ds::node_workload_distribution(1.2, 7.0, 512, 128);
  EXPECT_NEAR(128.0 * z.cdf(z.mean() / 3.0), 3.9, 0.5);
  EXPECT_NEAR(128.0 * z.sf(2.0 * z.mean()), 4.0, 0.5);
  EXPECT_GT(128.0 * z.cdf(z.mean() / 2.0), 128.0 * z.cdf(z.mean() / 3.0));
  // "some nodes will have a workload 4 to 6 times greater than others":
  // nodes above 2E exist alongside nodes below E/3 => ratio >= 6.
  EXPECT_GT(128.0 * z.cdf(z.mean() / 3.0), 1.0);
  EXPECT_GT(128.0 * z.sf(2.0 * z.mean()), 1.0);
}

TEST(NodeWorkload, RejectsZeroNodes) {
  EXPECT_THROW((void)ds::node_workload_distribution(1.0, 1.0, 10, 0),
               std::invalid_argument);
}

// ---- descriptive ----

TEST(Descriptive, EmptyInput) {
  const auto s = ds::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Descriptive, SingleValue) {
  const double xs[] = {5.0};
  const auto s = ds::summarize(xs);
  EXPECT_DOUBLE_EQ(s.min, 5.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Descriptive, KnownSeries) {
  const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const auto s = ds::summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // classic population-sd example
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.sum, 40.0);
}

TEST(Descriptive, ImbalanceRatios) {
  const double xs[] = {1.0, 2.0, 3.0};
  const auto s = ds::summarize(xs);
  EXPECT_DOUBLE_EQ(s.max_over_mean(), 1.5);
  EXPECT_DOUBLE_EQ(s.min_over_mean(), 0.5);
  EXPECT_GT(s.coeff_variation(), 0.0);
}

TEST(Descriptive, PercentileEndpointsAndMid) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(ds::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ds::percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(ds::percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(ds::percentile(xs, 0.25), 2.0);
}

TEST(Descriptive, PercentileRejectsBadArgs) {
  EXPECT_THROW((void)ds::percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)ds::percentile({1.0}, 1.5), std::invalid_argument);
}

// ---- zipf ----

TEST(Zipf, ProbabilitiesSumToOne) {
  const ds::ZipfSampler z(100, 1.1);
  double total = 0.0;
  for (std::uint64_t r = 0; r < 100; ++r) total += z.probability(r);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Zipf, RankZeroMostLikely) {
  const ds::ZipfSampler z(100, 1.1);
  EXPECT_GT(z.probability(0), z.probability(1));
  EXPECT_GT(z.probability(1), z.probability(50));
}

TEST(Zipf, ExponentZeroIsUniform) {
  const ds::ZipfSampler z(10, 0.0);
  for (std::uint64_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(z.probability(r), 0.1, 1e-12);
  }
}

TEST(Zipf, SamplesFollowDistribution) {
  const ds::ZipfSampler z(50, 1.0);
  datanet::common::Rng rng(31);
  std::vector<std::uint64_t> counts(50, 0);
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) ++counts[z.sample(rng)];
  for (std::uint64_t r : {0ull, 1ull, 5ull, 20ull}) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / kN, z.probability(r), 0.005);
  }
}

TEST(Zipf, SampleWithinRange) {
  const ds::ZipfSampler z(5, 2.0);
  datanet::common::Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(z.sample(rng), 5u);
}

// The guide table only picks where the search starts; every draw must land
// on exactly the rank std::lower_bound over the CDF returns, including draws
// that sit on or just below a CDF step and the largest double below 1.
TEST(Zipf, GuideTableMatchesLowerBound) {
  const std::pair<std::uint64_t, double> shapes[] = {
      {1, 1.0}, {10, 0.0}, {50, 1.0}, {2000, 1.05}, {100000, 0.9}};
  for (const auto& [n, s] : shapes) {
    const ds::ZipfSampler z(n, s);
    const auto& cdf = z.cdf();
    ASSERT_EQ(cdf.size(), n);
    const auto reference = [&](double u) {
      return static_cast<std::uint64_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    };
    std::vector<double> boundary = {0.0, 1.0 - 0x1.0p-53};
    for (const double c : cdf) {
      boundary.push_back(c);
      boundary.push_back(std::nextafter(c, 0.0));
    }
    for (const double u : boundary) {
      ASSERT_EQ(z.rank_of(u), reference(u)) << "n=" << n << " u=" << u;
    }

    // sample() is rank_of(rng.uniform()): replay the same stream on a copy.
    datanet::common::Rng rng(n * 31 + 7);
    datanet::common::Rng twin = rng;
    for (int i = 0; i < 1'000'000; ++i) {
      const std::uint64_t rank = z.sample(rng);
      const double u = twin.uniform();
      ASSERT_EQ(rank, reference(u)) << "n=" << n << " u=" << u;
    }
  }
}

TEST(Zipf, RejectsBadArgs) {
  EXPECT_THROW(ds::ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ds::ZipfSampler(10, -1.0), std::invalid_argument);
  const ds::ZipfSampler z(3, 1.0);
  EXPECT_THROW((void)z.probability(3), std::out_of_range);
}

// ---- histogram ----

TEST(Histogram, BucketIndexing) {
  ds::Histogram h({1.0, 2.0, 5.0});
  EXPECT_EQ(h.bucket_index(0.5), 0u);
  EXPECT_EQ(h.bucket_index(1.0), 1u);  // [1, 2)
  EXPECT_EQ(h.bucket_index(1.9), 1u);
  EXPECT_EQ(h.bucket_index(2.0), 2u);
  EXPECT_EQ(h.bucket_index(100.0), 3u);
  EXPECT_EQ(h.num_buckets(), 4u);
}

TEST(Histogram, CountsAccumulate) {
  ds::Histogram h({10.0});
  h.add(5.0);
  h.add(5.0, 3);
  h.add(20.0);
  EXPECT_EQ(h.count(0), 4u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, RejectsUnsortedEdges) {
  EXPECT_THROW(ds::Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(ds::Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, FibonacciEdges) {
  const auto edges = ds::fibonacci_edges(1024.0, 34.0 * 1024.0);
  // 1, 2, 3, 5, 8, 13, 21, 34 (scaled by 1 KiB)
  ASSERT_EQ(edges.size(), 8u);
  EXPECT_DOUBLE_EQ(edges[0], 1024.0);
  EXPECT_DOUBLE_EQ(edges[3], 5.0 * 1024);
  EXPECT_DOUBLE_EQ(edges[7], 34.0 * 1024);
}

TEST(Histogram, FibonacciEdgesRejectBad) {
  EXPECT_THROW(ds::fibonacci_edges(0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(ds::fibonacci_edges(10.0, 5.0), std::invalid_argument);
}

// ---- chi-square goodness of fit ----

#include "common/rng.hpp"
#include "stats/fit.hpp"
#include "stats/goodness_of_fit.hpp"

TEST(ChiSquared, SurvivalKnownValues) {
  // chi2_1: P(X >= 3.841) = 0.05; chi2_5: P(X >= 11.07) = 0.05.
  EXPECT_NEAR(ds::chi_squared_sf(3.841, 1), 0.05, 0.001);
  EXPECT_NEAR(ds::chi_squared_sf(11.07, 5), 0.05, 0.001);
  EXPECT_DOUBLE_EQ(ds::chi_squared_sf(0.0, 3), 1.0);
  EXPECT_THROW((void)ds::chi_squared_sf(1.0, 0), std::invalid_argument);
}

TEST(Gof, AcceptsTrueModel) {
  const ds::GammaDistribution g(1.2, 7.0);
  datanet::common::Rng rng(31);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = g.sample(rng);
  const auto fit = ds::fit_gamma_mle(xs);
  const ds::GammaDistribution fitted(fit.shape, fit.scale);
  const auto r = ds::chi_squared_gof(xs, fitted);
  EXPECT_GT(r.p_value, 0.01);  // the true model should rarely be rejected
  EXPECT_EQ(r.dof, r.bins - 3);
}

TEST(Gof, RejectsWrongModel) {
  // Exponential-ish samples tested against a sharply peaked Gamma.
  const ds::GammaDistribution true_model(1.0, 5.0);
  datanet::common::Rng rng(37);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = true_model.sample(rng);
  const ds::GammaDistribution wrong(20.0, 0.25);  // same-ish mean, wrong shape
  const auto r = ds::chi_squared_gof(xs, wrong, 0);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(Gof, RejectsTooFewSamples) {
  const ds::GammaDistribution g(1.0, 1.0);
  const std::vector<double> xs(10, 1.0);
  EXPECT_THROW((void)ds::chi_squared_gof(xs, g), std::invalid_argument);
}
