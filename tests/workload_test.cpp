// Tests for the workload substrate: record codec, text generation, the three
// log generators (content-clustering properties included), ingestion, and
// the ground-truth oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/hash.hpp"
#include "datanet/experiment.hpp"
#include "workload/dataset.hpp"
#include "workload/github_gen.hpp"
#include "workload/movie_gen.hpp"
#include "workload/record.hpp"
#include "workload/text_gen.hpp"
#include "workload/worldcup_gen.hpp"

namespace dw = datanet::workload;

// ---- record codec ----

TEST(Record, EncodeDecodeRoundTrip) {
  const dw::Record r{12345, "movie_00007", "rating=8 great film"};
  const auto line = dw::encode_record(r);
  const auto rv = dw::decode_record(line);
  ASSERT_TRUE(rv);
  EXPECT_EQ(rv->timestamp, 12345u);
  EXPECT_EQ(rv->key, "movie_00007");
  EXPECT_EQ(rv->payload, "rating=8 great film");
}

TEST(Record, EncodedSizeMatchesLineLength) {
  const dw::Record r{987654321, "k", "some payload"};
  const auto line = dw::encode_record(r);
  const auto rv = dw::decode_record(line);
  ASSERT_TRUE(rv);
  EXPECT_EQ(rv->encoded_size(), line.size() + 1);  // +1 for the newline
}

TEST(Record, EncodedSizeSingleDigitTimestamp) {
  const dw::Record r{0, "ab", "c"};
  const auto rv = dw::decode_record(dw::encode_record(r));
  ASSERT_TRUE(rv);
  EXPECT_EQ(rv->encoded_size(), 1u + 1 + 2 + 1 + 1 + 1);
}

TEST(Record, DecodeRejectsMalformed) {
  EXPECT_FALSE(dw::decode_record(""));
  EXPECT_FALSE(dw::decode_record("no tabs here"));
  EXPECT_FALSE(dw::decode_record("onlyone\tfield"));
  EXPECT_FALSE(dw::decode_record("notanumber\tkey\tpayload"));
  EXPECT_FALSE(dw::decode_record("123\t\tempty key"));
}

TEST(Record, DecodeAllowsEmptyPayloadAndTabsInPayload) {
  const auto rv = dw::decode_record("5\tkey\t");
  ASSERT_TRUE(rv);
  EXPECT_EQ(rv->payload, "");
  const auto rv2 = dw::decode_record("5\tkey\ta\tb");
  ASSERT_TRUE(rv2);
  EXPECT_EQ(rv2->payload, "a\tb");
}

TEST(Record, SubdatasetIdStableAndDistinct) {
  EXPECT_EQ(dw::subdataset_id("movie_1"), dw::subdataset_id("movie_1"));
  EXPECT_NE(dw::subdataset_id("movie_1"), dw::subdataset_id("movie_2"));
}

TEST(Record, ForEachRecordSkipsBadLines) {
  const std::string block = "1\ta\tx\ngarbage\n2\tb\ty\n\n3\tc\tz\n";
  std::vector<std::string> keys;
  const auto skipped = dw::for_each_record(block, [&](const dw::RecordView& rv) {
    keys.emplace_back(rv.key);
  });
  EXPECT_EQ(skipped, 1u);
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[1], "b");
}

TEST(Record, ForEachRecordHandlesMissingTrailingNewline) {
  std::uint64_t count = 0;
  dw::for_each_record("1\ta\tx\n2\tb\ty", [&](const dw::RecordView&) { ++count; });
  EXPECT_EQ(count, 2u);
}

// ---- text generator ----

TEST(TextGen, SentenceWordCounts) {
  const dw::TextGenerator g(500, 1.0);
  datanet::common::Rng rng(3);
  const auto s = g.sentence(rng, 10);
  EXPECT_EQ(std::count(s.begin(), s.end(), ' '), 9);
}

TEST(TextGen, BoundedSentenceLength) {
  const dw::TextGenerator g(500, 1.0);
  datanet::common::Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const auto s = g.sentence(rng, 3, 7);
    const auto words = std::count(s.begin(), s.end(), ' ') + 1;
    EXPECT_GE(words, 3);
    EXPECT_LE(words, 7);
  }
}

TEST(TextGen, VocabularyDistinct) {
  const dw::TextGenerator g(1000, 1.0);
  std::set<std::string> s(g.vocabulary().begin(), g.vocabulary().end());
  // make_word may rarely collide; allow a handful.
  EXPECT_GT(s.size(), 990u);
}

TEST(TextGen, ZipfSkewInText) {
  const dw::TextGenerator g(200, 1.2);
  datanet::common::Rng rng(5);
  std::unordered_map<std::string, int> counts;
  for (int i = 0; i < 500; ++i) {
    for (const auto& part : {g.sentence(rng, 20)}) {
      std::size_t start = 0;
      while (start < part.size()) {
        auto end = part.find(' ', start);
        if (end == std::string::npos) end = part.size();
        ++counts[part.substr(start, end - start)];
        start = end + 1;
      }
    }
  }
  // The most frequent word should dominate: Zipf head heavier than average.
  int max_count = 0;
  for (const auto& [w, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 10000 / 200 * 5);
}

TEST(TextGen, RejectsBadArgs) {
  EXPECT_THROW(dw::TextGenerator(0, 1.0), std::invalid_argument);
  const dw::TextGenerator g(10, 1.0);
  datanet::common::Rng rng(1);
  EXPECT_THROW(g.sentence(rng, 5, 3), std::invalid_argument);
}

// ---- movie generator ----

TEST(MovieGen, GeneratesRequestedCountSorted) {
  dw::MovieGenOptions o;
  o.num_movies = 50;
  o.num_records = 5000;
  const dw::MovieLogGenerator gen(o);
  const auto recs = gen.generate();
  EXPECT_EQ(recs.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(recs.begin(), recs.end(),
                             [](const dw::Record& a, const dw::Record& b) {
                               return a.timestamp < b.timestamp;
                             }));
}

TEST(MovieGen, TimestampsWithinHorizon) {
  dw::MovieGenOptions o;
  o.num_movies = 20;
  o.num_records = 2000;
  o.horizon_seconds = 10000;
  const dw::MovieLogGenerator gen(o);
  for (const auto& r : gen.generate()) EXPECT_LT(r.timestamp, 10000u);
}

TEST(MovieGen, PopularityIsZipfSkewed) {
  dw::MovieGenOptions o;
  o.num_movies = 100;
  o.num_records = 20000;
  const dw::MovieLogGenerator gen(o);
  std::unordered_map<std::string, int> counts;
  for (const auto& r : gen.generate()) ++counts[r.key];
  // Rank-0 movie receives far more reviews than a mid-rank movie.
  EXPECT_GT(counts[gen.movie_key(0)], 5 * std::max(1, counts[gen.movie_key(50)]));
}

TEST(MovieGen, ContentClusteringAroundRelease) {
  // Most of a popular movie's reviews land within a few decay constants of
  // its release (the phenomenon behind Fig. 1a).
  dw::MovieGenOptions o;
  o.num_movies = 50;
  o.num_records = 30000;
  o.background_fraction = 0.0;
  const dw::MovieLogGenerator gen(o);
  const auto& movie = gen.movies()[0];
  std::uint64_t within = 0, total = 0;
  for (const auto& r : gen.generate()) {
    if (r.key != movie.key) continue;
    ++total;
    if (r.timestamp >= movie.release &&
        r.timestamp <= movie.release + 3 * static_cast<std::uint64_t>(
                                              o.decay_seconds)) {
      ++within;
    }
  }
  ASSERT_GT(total, 100u);
  EXPECT_GT(static_cast<double>(within) / static_cast<double>(total), 0.90);
}

TEST(MovieGen, DeterministicForSeed) {
  dw::MovieGenOptions o;
  o.num_movies = 10;
  o.num_records = 500;
  const auto a = dw::MovieLogGenerator(o).generate();
  const auto b = dw::MovieLogGenerator(o).generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp, b[i].timestamp);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }
}

TEST(MovieGen, PayloadHasRating) {
  dw::MovieGenOptions o;
  o.num_movies = 5;
  o.num_records = 100;
  for (const auto& r : dw::MovieLogGenerator(o).generate()) {
    EXPECT_EQ(r.payload.rfind("rating=", 0), 0u) << r.payload;
  }
}

TEST(MovieGen, RejectsBadOptions) {
  dw::MovieGenOptions o;
  o.num_movies = 0;
  EXPECT_THROW(dw::MovieLogGenerator{o}, std::invalid_argument);
  o = {};
  o.num_records = 0;
  EXPECT_THROW(dw::MovieLogGenerator{o}, std::invalid_argument);
  o = {};
  o.min_review_words = 8;
  o.max_review_words = 7;
  EXPECT_THROW(dw::MovieLogGenerator{o}, std::invalid_argument);
  const dw::MovieLogGenerator gen{dw::MovieGenOptions{.num_movies = 3}};
  EXPECT_THROW(gen.movie_key(3), std::out_of_range);
}

// ---- github generator ----

TEST(GithubGen, MoreThanTwentyEventTypes) {
  EXPECT_GT(dw::github_event_types().size(), 20u);  // "more than 20 event types"
}

TEST(GithubGen, AllKeysAreKnownTypes) {
  dw::GithubGenOptions o;
  o.num_records = 5000;
  const std::set<std::string> types(dw::github_event_types().begin(),
                                    dw::github_event_types().end());
  for (const auto& r : dw::GithubLogGenerator(o).generate()) {
    EXPECT_TRUE(types.contains(r.key)) << r.key;
  }
}

TEST(GithubGen, PushDominates) {
  dw::GithubGenOptions o;
  o.num_records = 30000;
  std::unordered_map<std::string, int> counts;
  for (const auto& r : dw::GithubLogGenerator(o).generate()) ++counts[r.key];
  EXPECT_GT(counts["PushEvent"], counts["IssueEvent"]);
  EXPECT_GT(counts["PushEvent"], o.num_records / 4);
}

TEST(GithubGen, NoContentClustering) {
  // IssueEvent spreads over the whole horizon: split the horizon into 8
  // windows, every window should contain some IssueEvents (unlike movies).
  dw::GithubGenOptions o;
  o.num_records = 40000;
  const dw::GithubLogGenerator gen(o);
  std::vector<int> windows(8, 0);
  for (const auto& r : gen.generate()) {
    if (r.key == "IssueEvent") {
      ++windows[r.timestamp * 8 / o.horizon_seconds];
    }
  }
  for (const int w : windows) EXPECT_GT(w, 0);
}

TEST(GithubGen, SortedAndDeterministic) {
  dw::GithubGenOptions o;
  o.num_records = 2000;
  const auto a = dw::GithubLogGenerator(o).generate();
  const auto b = dw::GithubLogGenerator(o).generate();
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(),
                             [](const dw::Record& x, const dw::Record& y) {
                               return x.timestamp < y.timestamp;
                             }));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 97) {
    EXPECT_EQ(a[i].payload, b[i].payload);
  }
}

TEST(GithubGen, RejectsBadOptions) {
  dw::GithubGenOptions o;
  o.drift = 1.5;
  EXPECT_THROW(dw::GithubLogGenerator{o}, std::invalid_argument);
  o = {};
  o.num_records = 0;
  EXPECT_THROW(dw::GithubLogGenerator{o}, std::invalid_argument);
}

// ---- worldcup generator ----

TEST(WorldCup, BurstDaysConcentrateTraffic) {
  dw::WorldCupGenOptions o;
  o.num_records = 30000;
  o.num_days = 30;
  o.num_match_days = 5;
  const dw::WorldCupLogGenerator gen(o);
  const auto recs = gen.generate();
  // Per-day record counts: burst days get ~3x base traffic.
  std::vector<int> per_day(o.num_days, 0);
  for (const auto& r : recs) ++per_day[r.timestamp / 86400];
  const int max_day = *std::max_element(per_day.begin(), per_day.end());
  const int min_day = *std::min_element(per_day.begin(), per_day.end());
  EXPECT_GT(max_day, 2 * min_day);
}

TEST(WorldCup, KeysArePages) {
  dw::WorldCupGenOptions o;
  o.num_records = 1000;
  for (const auto& r : dw::WorldCupLogGenerator(o).generate()) {
    EXPECT_EQ(r.key.rfind("page_", 0), 0u);
  }
}

TEST(WorldCup, RejectsBadOptions) {
  dw::WorldCupGenOptions o;
  o.num_match_days = 100;
  o.num_days = 10;
  EXPECT_THROW(dw::WorldCupLogGenerator{o}, std::invalid_argument);
}

// ---- ingestion + ground truth ----

namespace {
datanet::dfs::MiniDfs small_dfs() {
  datanet::dfs::DfsOptions o;
  o.block_size = 4096;
  o.replication = 2;
  o.seed = 21;
  return datanet::dfs::MiniDfs(datanet::dfs::ClusterTopology::flat(4), o);
}
}  // namespace

TEST(Ingest, WritesAllRecords) {
  auto fs = small_dfs();
  dw::MovieGenOptions o;
  o.num_movies = 10;
  o.num_records = 1000;
  const auto recs = dw::MovieLogGenerator(o).generate();
  const auto blocks = dw::ingest(fs, "/movies", recs);
  EXPECT_GT(blocks, 1u);
  std::uint64_t count = 0;
  for (const auto b : fs.blocks_of("/movies")) {
    dw::for_each_record(fs.read_block(b), [&](const dw::RecordView&) { ++count; });
  }
  EXPECT_EQ(count, 1000u);
}

TEST(GroundTruth, TotalsMatchManualScan) {
  auto fs = small_dfs();
  dw::MovieGenOptions o;
  o.num_movies = 10;
  o.num_records = 800;
  const auto recs = dw::MovieLogGenerator(o).generate();
  dw::ingest(fs, "/movies", recs);
  const dw::GroundTruth truth(fs, "/movies");

  std::unordered_map<dw::SubDatasetId, std::uint64_t> manual;
  std::uint64_t manual_total = 0;
  for (const auto& r : recs) {
    const auto line_size = dw::encode_record(r).size() + 1;
    manual[dw::subdataset_id(r.key)] += line_size;
    manual_total += line_size;
  }
  EXPECT_EQ(truth.total_bytes(), manual_total);
  EXPECT_EQ(truth.num_subdatasets(), manual.size());
  for (const auto& [id, size] : manual) EXPECT_EQ(truth.total_size(id), size);
}

TEST(GroundTruth, DistributionSumsToTotal) {
  auto fs = small_dfs();
  dw::MovieGenOptions o;
  o.num_movies = 8;
  o.num_records = 600;
  const dw::MovieLogGenerator gen(o);
  dw::ingest(fs, "/movies", gen.generate());
  const dw::GroundTruth truth(fs, "/movies");
  const auto id = dw::subdataset_id(gen.movie_key(0));
  const auto dist = truth.distribution(id);
  EXPECT_EQ(dist.size(), truth.num_blocks());
  std::uint64_t sum = 0;
  for (const auto v : dist) sum += v;
  EXPECT_EQ(sum, truth.total_size(id));
}

TEST(GroundTruth, IdsBySizeDescending) {
  auto fs = small_dfs();
  dw::MovieGenOptions o;
  o.num_movies = 12;
  o.num_records = 700;
  dw::ingest(fs, "/movies", dw::MovieLogGenerator(o).generate());
  const dw::GroundTruth truth(fs, "/movies");
  const auto ids = truth.ids_by_size();
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_GE(truth.total_size(ids[i - 1]), truth.total_size(ids[i]));
  }
}

TEST(GroundTruth, UnknownIdIsZero) {
  auto fs = small_dfs();
  dw::MovieGenOptions o;
  o.num_movies = 3;
  o.num_records = 100;
  dw::ingest(fs, "/movies", dw::MovieLogGenerator(o).generate());
  const dw::GroundTruth truth(fs, "/movies");
  EXPECT_EQ(truth.total_size(dw::subdataset_id("not_a_movie")), 0u);
  EXPECT_EQ(truth.size_in_block(999, 1), 0u);
}

// ---- generated bytes ----

namespace {
// Every block's bytes, in file order, folded into one hash.
std::uint64_t content_hash(const datanet::core::StoredDataset& ds) {
  namespace dc = datanet::common;
  std::uint64_t h = 0;
  for (const auto b : ds.dfs->blocks_of(ds.path)) {
    h = dc::hash_combine(h, dc::hash_bytes(ds.dfs->read_block(b)));
  }
  return h;
}
}  // namespace

// Placement and fingerprints are pinned elsewhere; these constants pin the
// record content itself, so any change to the Zipf draws, the text or the
// record order of either generator shows up here.
TEST(Workload, GeneratedDatasetsArePinned) {
  const datanet::core::ExperimentConfig cfg;
  const auto movies = datanet::core::make_movie_dataset(cfg, 16, 200);
  EXPECT_EQ(movies.dfs->blocks_of(movies.path).size(), 17u);
  EXPECT_EQ(content_hash(movies), 0xe60a2506161f8050ull);
  const auto github = datanet::core::make_github_dataset(cfg, 16);
  EXPECT_EQ(github.dfs->blocks_of(github.path).size(), 18u);
  EXPECT_EQ(content_hash(github), 0xf6a50c16d2dcf483ull);
}
