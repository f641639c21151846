// Tests for the paper's core contribution: the single-scan dominant
// separator (Section III-B), BlockMeta (hashmap + bloom hybrid), the
// ElasticMapArray with Eq. 5/6, and the accuracy metric χ.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "elasticmap/block_meta.hpp"
#include "elasticmap/cost_model.hpp"
#include "elasticmap/elastic_map.hpp"
#include "elasticmap/separator.hpp"
#include "workload/dataset.hpp"
#include "workload/movie_gen.hpp"

namespace de = datanet::elasticmap;
namespace dw = datanet::workload;

// ---- cost model (Eq. 5) ----

TEST(CostModel, PureBloomAndPureMapLimits) {
  de::CostModelParams p;
  p.bloom_fpp = 0.01;
  p.hashmap_record_bits = 96;
  p.hashmap_load_factor = 0.75;

  p.alpha = 0.0;  // everything in the bloom filter
  EXPECT_NEAR(de::elasticmap_cost_bits(1000, p), 1000 * 9.585, 10.0);

  p.alpha = 1.0;  // everything in the hash map
  EXPECT_NEAR(de::elasticmap_cost_bits(1000, p), 1000 * 96 / 0.75, 1.0);
}

TEST(CostModel, MonotoneInAlpha) {
  de::CostModelParams p;
  double prev = 0.0;
  for (double a = 0.0; a <= 1.0; a += 0.1) {
    p.alpha = a;
    const double c = de::elasticmap_cost_bits(1000, p);
    EXPECT_GT(c, prev);  // hash map bits dominate bloom bits per key
    prev = c;
  }
}

TEST(CostModel, BytesRoundsUp) {
  de::CostModelParams p;
  p.alpha = 0.0;
  EXPECT_EQ(de::elasticmap_cost_bytes(1, p),
            static_cast<std::uint64_t>(
                std::ceil(de::elasticmap_cost_bits(1, p) / 8.0)));
}

TEST(CostModel, AlphaForBudgetInverts) {
  de::CostModelParams p;
  for (double target : {0.2, 0.5, 0.8}) {
    p.alpha = target;
    const auto budget = de::elasticmap_cost_bytes(5000, p);
    const double recovered = de::alpha_for_budget(5000, budget, p);
    EXPECT_NEAR(recovered, target, 0.01);
  }
}

TEST(CostModel, AlphaForBudgetClamps) {
  de::CostModelParams p;
  EXPECT_DOUBLE_EQ(de::alpha_for_budget(1000, 0, p), 0.0);
  EXPECT_DOUBLE_EQ(de::alpha_for_budget(1000, 1 << 30, p), 1.0);
}

TEST(CostModel, RejectsBadParams) {
  de::CostModelParams p;
  p.alpha = 1.5;
  EXPECT_THROW((void)de::elasticmap_cost_bits(10, p), std::invalid_argument);
  p = {};
  p.bloom_fpp = 0.0;
  EXPECT_THROW((void)de::elasticmap_cost_bits(10, p), std::invalid_argument);
  p = {};
  p.hashmap_load_factor = 0.0;
  EXPECT_THROW((void)de::elasticmap_cost_bits(10, p), std::invalid_argument);
}

// ---- dominant separator ----

TEST(Separator, FibonacciBucketGeometry) {
  de::SeparatorOptions o;
  o.bucket_unit = 1024;
  o.bucket_max = 34 * 1024;
  const de::DominantSeparator s(o);
  // Edges: 1,2,3,5,8,13,21,34 KiB
  ASSERT_EQ(s.bucket_edges().size(), 8u);
  EXPECT_EQ(s.bucket_edges()[0], 1024u);
  EXPECT_EQ(s.bucket_edges()[4], 8u * 1024);
  EXPECT_EQ(s.bucket_edges()[7], 34u * 1024);
  EXPECT_EQ(s.bucket_counts().size(), 9u);
}

TEST(Separator, ForBlockSizePaperRatios) {
  const auto o = de::SeparatorOptions::for_block_size(64ull << 20);
  EXPECT_EQ(o.bucket_unit, 1024u);  // 1 KiB for a 64 MiB block, as the paper
  const de::DominantSeparator big(o);
  // "Tens of buckets could be sufficient" (Section III-B).
  EXPECT_GE(big.bucket_edges().size(), 8u);
  EXPECT_LE(big.bucket_edges().size(), 32u);
  // Small scaled-down blocks must still get a usable bucket ladder.
  const auto s = de::SeparatorOptions::for_block_size(16 * 1024);
  const de::DominantSeparator sep(s);
  EXPECT_GE(sep.bucket_edges().size(), 6u);
}

TEST(Separator, AccumulatesSizes) {
  de::DominantSeparator s({.bucket_unit = 10, .bucket_max = 100});
  s.add(1, 5);
  s.add(1, 7);
  s.add(2, 30);
  EXPECT_EQ(s.sizes().at(1), 12u);
  EXPECT_EQ(s.sizes().at(2), 30u);
  EXPECT_EQ(s.num_subdatasets(), 2u);
  EXPECT_EQ(s.total_bytes(), 42u);
}

TEST(Separator, ZeroByteAddIgnored) {
  de::DominantSeparator s({.bucket_unit = 10, .bucket_max = 100});
  s.add(1, 0);
  EXPECT_EQ(s.num_subdatasets(), 0u);
}

TEST(Separator, BucketCountsTrackGrowth) {
  de::DominantSeparator s({.bucket_unit = 10, .bucket_max = 100});
  // Sizes cross bucket boundaries as they grow: counts must move.
  s.add(1, 5);  // bucket (0,10)
  EXPECT_EQ(s.bucket_counts()[0], 1u);
  s.add(1, 10);  // now 15 -> bucket [10,20)
  EXPECT_EQ(s.bucket_counts()[0], 0u);
  EXPECT_EQ(s.bucket_counts()[1], 1u);
  s.add(1, 1000);  // top bucket
  EXPECT_EQ(s.bucket_counts().back(), 1u);
  // Total count conserved at 1.
  std::uint64_t total = 0;
  for (const auto c : s.bucket_counts()) total += c;
  EXPECT_EQ(total, 1u);
}

TEST(Separator, ThresholdKeepsRoughlyAlphaFraction) {
  de::DominantSeparator s({.bucket_unit = 10, .bucket_max = 1000});
  // 100 sub-datasets: sizes 1..100 * 10 (spread over many buckets).
  for (std::uint64_t i = 1; i <= 100; ++i) s.add(i, i * 10);
  const auto threshold = s.threshold_for_fraction(0.2);
  const auto kept = s.count_at_or_above(threshold);
  EXPECT_LE(kept, 20u);
  EXPECT_GT(kept, 0u);
}

TEST(Separator, ThresholdAlphaOneKeepsAll) {
  de::DominantSeparator s({.bucket_unit = 10, .bucket_max = 100});
  for (std::uint64_t i = 1; i <= 20; ++i) s.add(i, i * 7);
  EXPECT_EQ(s.threshold_for_fraction(1.0), 0u);
}

TEST(Separator, ThresholdEmptyIsZero) {
  de::DominantSeparator s({.bucket_unit = 10, .bucket_max = 100});
  EXPECT_EQ(s.threshold_for_fraction(0.5), 0u);
}

TEST(Separator, ThresholdRejectsBadAlpha) {
  de::DominantSeparator s({.bucket_unit = 10, .bucket_max = 100});
  EXPECT_THROW((void)s.threshold_for_fraction(-0.1), std::invalid_argument);
  EXPECT_THROW((void)s.threshold_for_fraction(1.1), std::invalid_argument);
}

TEST(Separator, RejectsBadGeometry) {
  EXPECT_THROW(de::DominantSeparator({.bucket_unit = 0, .bucket_max = 10}),
               std::invalid_argument);
  EXPECT_THROW(de::DominantSeparator({.bucket_unit = 100, .bucket_max = 10}),
               std::invalid_argument);
}

TEST(Separator, SkewedInputSeparatesDominants) {
  // Content-clustered block: 3 dominant sub-datasets and a long tail.
  de::DominantSeparator s(de::SeparatorOptions::for_block_size(1 << 20));
  s.add(1001, 200000);
  s.add(1002, 150000);
  s.add(1003, 90000);
  for (std::uint64_t i = 0; i < 500; ++i) s.add(i, 20 + i % 50);
  const auto threshold = s.threshold_for_fraction(0.01);
  EXPECT_EQ(s.count_at_or_above(threshold), 3u);
}

// ---- BlockMeta ----

namespace {
de::BlockMeta make_meta() {
  std::unordered_map<dw::SubDatasetId, std::uint64_t> dominant{
      {11, 5000}, {22, 3000}, {33, 1500}};
  std::vector<dw::SubDatasetId> tail{101, 102, 103, 104};
  return de::BlockMeta(std::move(dominant), tail, 0.01, /*delta=*/1500);
}
}  // namespace

TEST(BlockMeta, ExactLookups) {
  const auto m = make_meta();
  EXPECT_EQ(m.exact_size(11), 5000u);
  EXPECT_EQ(m.exact_size(22), 3000u);
  EXPECT_FALSE(m.exact_size(101));  // tail entries are not exact
  EXPECT_FALSE(m.exact_size(999));
}

TEST(BlockMeta, TailMembership) {
  const auto m = make_meta();
  for (dw::SubDatasetId id : {101, 102, 103, 104}) {
    EXPECT_TRUE(m.maybe_in_tail(id));
  }
}

TEST(BlockMeta, EstimateSizePaths) {
  const auto m = make_meta();
  bool exact = false;
  EXPECT_EQ(m.estimate_size(11, &exact), 5000u);
  EXPECT_TRUE(exact);
  EXPECT_EQ(m.estimate_size(101, &exact), 1500u);  // delta for bloom hits
  EXPECT_FALSE(exact);
}

TEST(BlockMeta, AbsentIdEstimatesZeroAlmostAlways) {
  const auto m = make_meta();
  int nonzero = 0;
  for (std::uint64_t id = 100000; id < 101000; ++id) {
    nonzero += (m.estimate_size(id) != 0);
  }
  EXPECT_LE(nonzero, 30);  // bloom false positives only
}

TEST(BlockMeta, Counters) {
  const auto m = make_meta();
  EXPECT_EQ(m.num_dominant(), 3u);
  EXPECT_EQ(m.num_tail(), 4u);
  EXPECT_EQ(m.delta(), 1500u);
  EXPECT_GT(m.memory_bytes(), 0u);
}

TEST(BlockMeta, EmptyTailStillConstructs) {
  std::unordered_map<dw::SubDatasetId, std::uint64_t> dominant{{1, 10}};
  const de::BlockMeta m(std::move(dominant), {}, 0.01, 10);
  EXPECT_EQ(m.num_tail(), 0u);
  EXPECT_EQ(m.estimate_size(1), 10u);
}

// ---- ElasticMapArray over a real dataset ----

namespace {
struct Fixture {
  datanet::dfs::MiniDfs dfs;
  std::string path = "/movies";
  dw::MovieLogGenerator gen;
  dw::GroundTruth truth;

  static datanet::dfs::MiniDfs make_dfs() {
    datanet::dfs::DfsOptions o;
    o.block_size = 16 * 1024;
    o.replication = 3;
    o.seed = 77;
    return datanet::dfs::MiniDfs(datanet::dfs::ClusterTopology::flat(8), o);
  }
  static dw::MovieLogGenerator make_gen() {
    dw::MovieGenOptions o;
    o.num_movies = 200;
    o.num_records = 20000;
    o.seed = 99;
    return dw::MovieLogGenerator(o);
  }

  Fixture()
      : dfs(make_dfs()),
        gen(make_gen()),
        truth((dw::ingest(dfs, path, gen.generate()), dfs), path) {}
};
}  // namespace

// serialize() is the one encoding of a BlockMeta and memory_bytes() is its
// exact length, so Table II's "meta KiB" is what an encoded array occupies.
// The pinned array footprints fix both the encoding and the build: a change
// to either moves them.
TEST(BlockMeta, FootprintIsItsEncoding) {
  const auto m = make_meta();
  EXPECT_EQ(m.serialize().size(), m.memory_bytes());

  Fixture f;
  constexpr std::uint64_t kRawBytes = 3018811;
  const std::pair<double, std::uint64_t> pinned[] = {
      {0.2, 24018}, {0.5, 35602}, {0.8, 48444}};
  for (const auto& [alpha, memory_bytes] : pinned) {
    const auto em = de::ElasticMapArray::build(f.dfs, f.path, {.alpha = alpha});
    std::uint64_t encoded = 0;
    for (std::uint64_t b = 0; b < em.num_blocks(); ++b) {
      const auto size = em.block_meta(b).serialize().size();
      EXPECT_EQ(size, em.block_meta(b).memory_bytes()) << "block " << b;
      encoded += size;
    }
    EXPECT_EQ(em.memory_bytes(), encoded) << "alpha " << alpha;
    EXPECT_EQ(em.memory_bytes(), memory_bytes) << "alpha " << alpha;
    EXPECT_EQ(em.raw_bytes(), kRawBytes) << "alpha " << alpha;
  }
}

TEST(ElasticMapArray, BuildsOneMetaPerBlock) {
  Fixture f;
  const auto em = de::ElasticMapArray::build(f.dfs, f.path, {});
  EXPECT_EQ(em.num_blocks(), f.dfs.blocks_of(f.path).size());
  EXPECT_EQ(em.raw_bytes(), f.truth.total_bytes());
}

TEST(ElasticMapArray, DominantSizesAreExactTruth) {
  Fixture f;
  const auto em = de::ElasticMapArray::build(f.dfs, f.path, {.alpha = 0.3});
  for (std::uint64_t b = 0; b < em.num_blocks(); ++b) {
    for (const auto& [id, size] : em.block_meta(b).dominant()) {
      EXPECT_EQ(size, f.truth.size_in_block(b, id));
    }
  }
}

TEST(ElasticMapArray, EveryTruthIdIsVisible) {
  // No false negatives: every sub-dataset present in a block must be found
  // either exactly or via the bloom filter.
  Fixture f;
  const auto em = de::ElasticMapArray::build(f.dfs, f.path, {.alpha = 0.2});
  for (std::uint64_t b = 0; b < em.num_blocks(); ++b) {
    for (const auto id : f.truth.ids_by_size()) {
      if (f.truth.size_in_block(b, id) == 0) continue;
      EXPECT_GT(em.block_meta(b).estimate_size(id), 0u);
    }
  }
}

TEST(ElasticMapArray, EstimateNeverFarBelowActual) {
  // Dominant shares are exact and bloom has no false negatives, so the
  // Eq. 6 estimate can undershoot only on tail shares, each by at most the
  // gap between the entry and the block's delta (<= the bucket threshold).
  // Require: estimate >= 40% of actual, and never zero for a present id.
  Fixture f;
  const auto em = de::ElasticMapArray::build(f.dfs, f.path, {.alpha = 0.3});
  for (const auto id : f.truth.ids_by_size()) {
    const auto est = em.estimate_total_size(id);
    EXPECT_GT(est, 0u);
    EXPECT_GE(static_cast<double>(est),
              0.4 * static_cast<double>(f.truth.total_size(id)));
  }
}

TEST(ElasticMapArray, LargeSubdatasetsEstimatedAccurately) {
  // Fig. 9's shape: the hottest movies are dominant nearly everywhere, so
  // their totals are nearly exact.
  Fixture f;
  const auto em = de::ElasticMapArray::build(f.dfs, f.path, {.alpha = 0.3});
  const auto ids = f.truth.ids_by_size();
  for (std::size_t r = 0; r < 3; ++r) {
    const double actual = static_cast<double>(f.truth.total_size(ids[r]));
    const double est = static_cast<double>(em.estimate_total_size(ids[r]));
    EXPECT_LT((est - actual) / actual, 0.25) << "rank " << r;
  }
}

TEST(ElasticMapArray, DistributionOmitsIrrelevantBlocks) {
  Fixture f;
  const auto em = de::ElasticMapArray::build(f.dfs, f.path, {.alpha = 0.3});
  const auto id = dw::subdataset_id(f.gen.movie_key(0));
  const auto dist = em.distribution(id);
  EXPECT_FALSE(dist.empty());
  EXPECT_LE(dist.size(), em.num_blocks());
  std::uint64_t sum = 0;
  for (const auto& share : dist) {
    EXPECT_GT(share.estimated_bytes, 0u);
    sum += share.estimated_bytes;
  }
  EXPECT_EQ(sum, em.estimate_total_size(id));
}

TEST(ElasticMapArray, HigherAlphaIsMoreAccurate) {
  // Table II trend: accuracy χ decreases as alpha decreases.
  Fixture f;
  std::vector<std::pair<dw::SubDatasetId, std::uint64_t>> totals;
  for (const auto id : f.truth.ids_by_size()) {
    totals.emplace_back(id, f.truth.total_size(id));
  }
  double prev_chi = -1.0;
  for (const double alpha : {0.05, 0.2, 0.5, 1.0}) {
    const auto em = de::ElasticMapArray::build(f.dfs, f.path, {.alpha = alpha});
    const double chi = em.accuracy_chi(totals);
    EXPECT_GE(chi + 1e-9, prev_chi) << "alpha " << alpha;
    prev_chi = chi;
  }
  EXPECT_NEAR(prev_chi, 1.0, 1e-6);  // alpha = 1: everything exact
}

TEST(ElasticMapArray, HigherAlphaCostsMoreMemory) {
  Fixture f;
  std::uint64_t prev = 0;
  for (const double alpha : {0.05, 0.3, 1.0}) {
    const auto em = de::ElasticMapArray::build(f.dfs, f.path, {.alpha = alpha});
    EXPECT_GT(em.memory_bytes(), prev);
    prev = em.memory_bytes();
  }
}

TEST(ElasticMapArray, RepresentationRatioAboveOne) {
  Fixture f;
  const auto em = de::ElasticMapArray::build(f.dfs, f.path, {.alpha = 0.3});
  EXPECT_GT(em.representation_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(
      em.representation_ratio(),
      static_cast<double>(em.raw_bytes()) / static_cast<double>(em.memory_bytes()));
}

TEST(ElasticMapArray, AlphaOneMeansNoTail) {
  Fixture f;
  const auto em = de::ElasticMapArray::build(f.dfs, f.path, {.alpha = 1.0});
  for (std::uint64_t b = 0; b < em.num_blocks(); ++b) {
    EXPECT_EQ(em.block_meta(b).num_tail(), 0u);
  }
}

TEST(ElasticMapArray, RejectsBadArgs) {
  Fixture f;
  EXPECT_THROW(de::ElasticMapArray::build(f.dfs, f.path, {.alpha = 2.0}),
               std::invalid_argument);
  EXPECT_THROW(de::ElasticMapArray::build(f.dfs, "/missing", {}),
               std::out_of_range);
  const auto em = de::ElasticMapArray::build(f.dfs, f.path, {});
  EXPECT_THROW((void)em.block_meta(em.num_blocks()), std::out_of_range);
  EXPECT_THROW((void)em.block_id(em.num_blocks()), std::out_of_range);
}

// Property sweep: core invariants hold across alpha and fpp configurations.
class ElasticMapSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ElasticMapSweep, NoFalseNegativesAndBoundedUndershoot) {
  const auto [alpha, fpp] = GetParam();
  Fixture f;
  const auto em =
      de::ElasticMapArray::build(f.dfs, f.path, {.alpha = alpha, .bloom_fpp = fpp});
  const auto ids = f.truth.ids_by_size();
  for (std::size_t r = 0; r < ids.size(); r += 7) {
    const auto est = em.estimate_total_size(ids[r]);
    EXPECT_GT(est, 0u);  // present ids are never invisible
    EXPECT_GE(static_cast<double>(est),
              0.35 * static_cast<double>(f.truth.total_size(ids[r])));
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, ElasticMapSweep,
                         ::testing::Combine(::testing::Values(0.1, 0.3, 0.6),
                                            ::testing::Values(0.001, 0.01, 0.05)));

// ---- Eq. 5 model vs measured memory ----

TEST(CostModel, PredictsMeasuredMemoryWithinFactorTwo) {
  // The Eq. 5 model and the actual serialized ElasticMap must agree on the
  // order of magnitude across alphas (model validation: k = 128 bits per
  // hash-map record matches our 16-byte entries).
  Fixture f;
  for (const double alpha : {0.2, 0.5, 0.8}) {
    const auto em = de::ElasticMapArray::build(f.dfs, f.path, {.alpha = alpha});
    // Count total per-block sub-datasets for the model input.
    std::uint64_t total_subdatasets = 0;
    for (std::uint64_t b = 0; b < em.num_blocks(); ++b) {
      total_subdatasets +=
          em.block_meta(b).num_dominant() + em.block_meta(b).num_tail();
    }
    de::CostModelParams p;
    // Effective alpha realized by the bucket separation (may differ from the
    // requested fraction at bucket granularity).
    std::uint64_t dominant = 0;
    for (std::uint64_t b = 0; b < em.num_blocks(); ++b) {
      dominant += em.block_meta(b).num_dominant();
    }
    p.alpha = static_cast<double>(dominant) /
              static_cast<double>(total_subdatasets);
    p.hashmap_record_bits = 128.0;  // 8B id + 8B size as serialized
    p.hashmap_load_factor = 1.0;    // serialization has no slack
    const auto predicted = de::elasticmap_cost_bytes(total_subdatasets, p);
    const auto measured = em.memory_bytes();
    EXPECT_LT(static_cast<double>(measured), 2.0 * static_cast<double>(predicted))
        << "alpha " << alpha;
    EXPECT_GT(static_cast<double>(measured), 0.4 * static_cast<double>(predicted))
        << "alpha " << alpha;
  }
}
