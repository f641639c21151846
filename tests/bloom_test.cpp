// Tests for the Bloom filter substrate, including the property-based sweeps
// over (expected_keys, target_fpp) configurations used by ElasticMap.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "bloom/bloom_filter.hpp"
#include "common/rng.hpp"

namespace db = datanet::bloom;

TEST(Bloom, NoFalseNegatives) {
  db::BloomFilter f(1000, 0.01);
  for (std::uint64_t k = 0; k < 1000; ++k) f.insert(k * 2654435761ULL);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_TRUE(f.maybe_contains(k * 2654435761ULL));
  }
}

TEST(Bloom, EmptyFilterContainsNothing) {
  const db::BloomFilter f(100, 0.01);
  datanet::common::Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(f.maybe_contains(rng()));
}

TEST(Bloom, FalsePositiveRateNearTarget) {
  constexpr std::uint64_t kN = 10000;
  db::BloomFilter f(kN, 0.01);
  datanet::common::Rng rng(8);
  for (std::uint64_t i = 0; i < kN; ++i) f.insert(rng());
  // Probe disjoint keys.
  std::uint64_t fp = 0;
  constexpr std::uint64_t kProbes = 100000;
  datanet::common::Rng probe_rng(1234);
  for (std::uint64_t i = 0; i < kProbes; ++i) fp += f.maybe_contains(probe_rng());
  const double rate = static_cast<double>(fp) / kProbes;
  EXPECT_LT(rate, 0.02);  // within 2x of the 1% target
}

TEST(Bloom, BitsPerKeyFormula) {
  // -ln(0.01)/ln^2(2) ~= 9.585 bits per key — the "10 bits" of Section III-A.
  EXPECT_NEAR(db::BloomFilter::bits_per_key(0.01), 9.585, 0.01);
  EXPECT_NEAR(db::BloomFilter::bits_per_key(0.001), 14.38, 0.01);
}

TEST(Bloom, MemoryScalesWithKeysAndFpp) {
  const db::BloomFilter small(1000, 0.01);
  const db::BloomFilter big(10000, 0.01);
  const db::BloomFilter tight(1000, 0.0001);
  EXPECT_GT(big.memory_bytes(), small.memory_bytes());
  EXPECT_GT(tight.memory_bytes(), small.memory_bytes());
}

TEST(Bloom, MergeUnion) {
  db::BloomFilter a(100, 0.01);
  db::BloomFilter b(100, 0.01);
  a.insert(1);
  b.insert(2);
  a.merge(b);
  EXPECT_TRUE(a.maybe_contains(1));
  EXPECT_TRUE(a.maybe_contains(2));
  EXPECT_EQ(a.insert_count(), 2u);
}

TEST(Bloom, MergeRejectsGeometryMismatch) {
  db::BloomFilter a(1000, 0.01);
  db::BloomFilter b(500, 0.01);
  ASSERT_NE(a.num_bits(), b.num_bits());
  // Twice the keys at half the bits per key: the same bit count, a different
  // hash count.
  db::BloomFilter c(2000, 0.1);
  ASSERT_EQ(a.num_bits(), c.num_bits());
  ASSERT_NE(a.num_hashes(), c.num_hashes());
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Bloom, FppClampedToValidRange) {
  // Nonsense fpp values are clamped rather than UB.
  const db::BloomFilter loose(100, 0.99);
  const db::BloomFilter tight(100, 1e-30);
  EXPECT_GE(loose.num_hashes(), 1u);
  EXPECT_LE(tight.num_hashes(), 30u);
}

TEST(Bloom, ZeroExpectedKeysClamped) {
  db::BloomFilter f(0, 0.01);
  f.insert(3);
  EXPECT_TRUE(f.maybe_contains(3));
}

// ---- property-style sweep (TEST_P): fpp stays near target across configs ----

class BloomFppSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(BloomFppSweep, MeasuredFppWithinTwoXOfTarget) {
  const auto [n, fpp] = GetParam();
  db::BloomFilter f(n, fpp);
  datanet::common::Rng rng(n * 31 + 7);
  for (std::uint64_t i = 0; i < n; ++i) f.insert(rng());

  std::uint64_t fp = 0;
  constexpr std::uint64_t kProbes = 50000;
  datanet::common::Rng probe(0xabcdef);
  for (std::uint64_t i = 0; i < kProbes; ++i) fp += f.maybe_contains(probe());
  const double measured = static_cast<double>(fp) / kProbes;
  EXPECT_LT(measured, std::max(fpp * 2.5, 0.0008))
      << "n=" << n << " target=" << fpp;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BloomFppSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(100, 1000, 20000),
                       ::testing::Values(0.001, 0.01, 0.05)));

// ---- property: no false negatives under any geometry ----

class BloomNoFalseNegatives
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {};

TEST_P(BloomNoFalseNegatives, AllInsertedFound) {
  const auto [bits, hashes] = GetParam();
  // The sizing constructor's inverse: k = (m/n) ln 2 gives the key count n,
  // and m/n bits per key give the target fpp.
  constexpr double kLn2 = 0.6931471805599453;
  const double n = std::max(1.0, std::round(static_cast<double>(bits) * kLn2 /
                                            static_cast<double>(hashes)));
  const double fpp = std::exp(-(static_cast<double>(bits) / n) * kLn2 * kLn2);
  db::BloomFilter f(static_cast<std::uint64_t>(n), fpp);
  EXPECT_NEAR(static_cast<double>(f.num_bits()), static_cast<double>(bits),
              0.02 * static_cast<double>(bits) + 64);
  datanet::common::Rng rng(bits + hashes);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back(rng());
    f.insert(keys.back());
  }
  for (const auto k : keys) EXPECT_TRUE(f.maybe_contains(k));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BloomNoFalseNegatives,
    ::testing::Combine(::testing::Values<std::uint64_t>(64, 1024, 65536),
                       ::testing::Values<std::uint32_t>(1, 4, 13)));
