// Tests for the four paper workloads (MovingAverage, TopKSearch, WordCount,
// AggregateWordHistogram) and the selection job — each validated against a
// straightforward serial computation.

#include <gtest/gtest.h>

#include <charconv>
#include <map>
#include <unordered_map>

#include "apps/distinct_users.hpp"
#include "apps/filter.hpp"
#include "apps/histogram.hpp"
#include "apps/moving_average.hpp"
#include "apps/sessionize.hpp"
#include "apps/topk_search.hpp"
#include "apps/word_count.hpp"
#include "common/hash.hpp"
#include "common/string_util.hpp"
#include "datanet/datanet.hpp"
#include "datanet/experiment.hpp"
#include "datanet/selection_runtime.hpp"
#include "mapred/engine.hpp"
#include "mapred/report_json.hpp"
#include "scheduler/datanet_sched.hpp"

namespace da = datanet::apps;
namespace dm = datanet::mapred;

namespace {

std::string lines(std::initializer_list<const char*> ls) {
  std::string out;
  for (const char* l : ls) {
    out += l;
    out += '\n';
  }
  return out;
}

dm::JobReport run1(const dm::Job& job, const std::string& data,
                   std::uint32_t nodes = 1) {
  dm::Engine engine({.num_nodes = nodes});
  return engine.run(job, {{.node = 0, .data = data, .charged_bytes = 0}});
}

}  // namespace

// ---- word count ----

TEST(WordCount, CountsMatchSerial) {
  const auto data = lines({
      "1\tm\tthe cat and the dog",
      "2\tm\tThe CAT sat",
  });
  const auto report = run1(da::make_word_count_job(), data);
  EXPECT_EQ(report.output.at("the"), "3");
  EXPECT_EQ(report.output.at("cat"), "2");
  EXPECT_EQ(report.output.at("dog"), "1");
  EXPECT_EQ(report.output.at("sat"), "1");
  EXPECT_EQ(report.output.at("and"), "1");
}

TEST(WordCount, MultiSplitAggregation) {
  const auto b1 = lines({"1\tm\talpha beta"});
  const auto b2 = lines({"2\tm\tbeta gamma", "3\tm\tbeta"});
  dm::Engine engine({.num_nodes = 2});
  const auto report = engine.run(da::make_word_count_job(),
                                 {{.node = 0, .data = b1, .charged_bytes = 0},
                                  {.node = 1, .data = b2, .charged_bytes = 0}});
  EXPECT_EQ(report.output.at("beta"), "3");
  EXPECT_EQ(report.output.at("alpha"), "1");
  EXPECT_EQ(report.output.at("gamma"), "1");
}

TEST(WordCount, EmptyPayloads) {
  const auto report = run1(da::make_word_count_job(), lines({"1\tm\t"}));
  EXPECT_TRUE(report.output.empty());
}

// ---- moving average ----

TEST(MovingAverage, WindowAverages) {
  // Window = 100 s. ts 0-99 -> window 0, ts 100-199 -> window 1.
  const auto data = lines({
      "10\tm\trating=4 text",
      "20\tm\trating=6 text",
      "150\tm\trating=9 text",
  });
  const auto report = run1(da::make_moving_average_job(100), data);
  EXPECT_EQ(report.output.at("000000000000"), "5.0000");
  EXPECT_EQ(report.output.at("000000000001"), "9.0000");
}

TEST(MovingAverage, IgnoresRecordsWithoutRating) {
  const auto data = lines({
      "10\tm\tno rating here",
      "20\tm\trating=8 ok",
  });
  const auto report = run1(da::make_moving_average_job(100), data);
  EXPECT_EQ(report.output.at("000000000000"), "8.0000");
  EXPECT_EQ(report.output.size(), 1u);
}

TEST(MovingAverage, PartialsCombineAcrossSplits) {
  const auto b1 = lines({"10\tm\trating=2 a"});
  const auto b2 = lines({"20\tm\trating=4 b", "30\tm\trating=6 c"});
  dm::Engine engine({.num_nodes = 2});
  const auto report = engine.run(da::make_moving_average_job(1000),
                                 {{.node = 0, .data = b1, .charged_bytes = 0},
                                  {.node = 1, .data = b2, .charged_bytes = 0}});
  EXPECT_EQ(report.output.at("000000000000"), "4.0000");
}

TEST(MovingAverage, RejectsZeroWindow) {
  EXPECT_THROW(da::make_moving_average_job(0), std::invalid_argument);
}

// ---- top-k search ----

TEST(TopK, BigramCosineProperties) {
  EXPECT_NEAR(da::bigram_cosine("hello world", "hello world"), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(da::bigram_cosine("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(da::bigram_cosine("", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(da::bigram_cosine("a", "a"), 0.0);  // no bigram in 1 char
  const double sim = da::bigram_cosine("the quick fox", "the quick dog");
  EXPECT_GT(sim, 0.5);
  EXPECT_LT(sim, 1.0);
  // Symmetry.
  EXPECT_DOUBLE_EQ(da::bigram_cosine("abcd", "bcde"),
                   da::bigram_cosine("bcde", "abcd"));
}

TEST(TopK, FindsExactMatchFirst) {
  const auto data = lines({
      "1\tm\tcompletely different text here",
      "2\tm\tthe exact query string",
      "3\tm\tanother unrelated review",
  });
  const auto report =
      run1(da::make_topk_search_job("the exact query string", 2), data);
  ASSERT_TRUE(report.output.contains("topk_00"));
  EXPECT_NE(report.output.at("topk_00").find("the exact query string"),
            std::string::npos);
  EXPECT_EQ(report.output.at("topk_00").substr(0, 8), "1.000000");
}

TEST(TopK, ReturnsAtMostK) {
  const auto data = lines({
      "1\tm\taaa bbb", "2\tm\taaa ccc", "3\tm\taaa ddd", "4\tm\taaa eee",
  });
  const auto report = run1(da::make_topk_search_job("aaa", 2), data);
  EXPECT_TRUE(report.output.contains("topk_00"));
  EXPECT_TRUE(report.output.contains("topk_01"));
  EXPECT_FALSE(report.output.contains("topk_02"));
}

TEST(TopK, GlobalMergeAcrossSplits) {
  // The best match lives in split 2; it must win the global merge.
  const auto b1 = lines({"1\tm\tzzz yyy xxx"});
  const auto b2 = lines({"2\tm\tsearch target text"});
  dm::Engine engine({.num_nodes = 2});
  const auto report = engine.run(da::make_topk_search_job("search target text", 1),
                                 {{.node = 0, .data = b1, .charged_bytes = 0},
                                  {.node = 1, .data = b2, .charged_bytes = 0}});
  ASSERT_TRUE(report.output.contains("topk_00"));
  EXPECT_NE(report.output.at("topk_00").find("search target"), std::string::npos);
}

TEST(TopK, ScoresDescending) {
  const auto data = lines({
      "1\tm\tsearch target text",
      "2\tm\tsearch target other",
      "3\tm\tnothing alike qq",
  });
  const auto report = run1(da::make_topk_search_job("search target text", 3), data);
  double prev = 2.0;
  for (const auto& [k, v] : report.output) {
    double score = 0.0;
    std::from_chars(v.data(), v.data() + v.find('\t'), score);
    EXPECT_LE(score, prev);
    prev = score;
  }
}

TEST(TopK, RejectsBadArgs) {
  EXPECT_THROW(da::make_topk_search_job("q", 0), std::invalid_argument);
  EXPECT_THROW(da::make_topk_search_job("", 3), std::invalid_argument);
}

TEST(TopK, IsTheMostCpuIntensiveJob) {
  // The Fig. 5a ordering rests on this cost-model ordering.
  const auto topk = da::make_topk_search_job("q", 1);
  const auto wc = da::make_word_count_job();
  const auto ma = da::make_moving_average_job(100);
  EXPECT_GT(topk.config.cost.cpu_s_per_mib, wc.config.cost.cpu_s_per_mib);
  EXPECT_GT(wc.config.cost.cpu_s_per_mib, ma.config.cost.cpu_s_per_mib);
}

// ---- histogram ----

TEST(Histogram, LengthBuckets) {
  const auto data = lines({
      "1\tm\tab abc ab",
      "2\tm\tabcd ab",
  });
  const auto report = run1(da::make_word_histogram_job(), data);
  EXPECT_EQ(report.output.at("len_002"), "3");
  EXPECT_EQ(report.output.at("len_003"), "1");
  EXPECT_EQ(report.output.at("len_004"), "1");
  EXPECT_EQ(report.output.at("total_words"), "5");
}

TEST(Histogram, AggregatesAcrossSplits) {
  const auto b1 = lines({"1\tm\taa bb"});
  const auto b2 = lines({"2\tm\tcc"});
  dm::Engine engine({.num_nodes = 2});
  const auto report = engine.run(da::make_word_histogram_job(),
                                 {{.node = 0, .data = b1, .charged_bytes = 0},
                                  {.node = 1, .data = b2, .charged_bytes = 0}});
  EXPECT_EQ(report.output.at("len_002"), "3");
  EXPECT_EQ(report.output.at("total_words"), "3");
}

// ---- filter ----

TEST(Filter, MatchPredicate) {
  const auto rv = datanet::workload::decode_record("1\tmovie_7\tx");
  ASSERT_TRUE(rv);
  EXPECT_TRUE(da::matches_subdataset(*rv, "movie_7"));
  EXPECT_FALSE(da::matches_subdataset(*rv, "movie_8"));
}

TEST(Filter, StatsJobSumsBytesPerKey) {
  const auto l1 = std::string("1\ta\txx");
  const auto l2 = std::string("2\tb\tyyy");
  const auto l3 = std::string("3\ta\tz");
  const auto data = l1 + "\n" + l2 + "\n" + l3 + "\n";
  const auto report = run1(da::make_filter_stats_job(""), data);
  EXPECT_EQ(report.output.at("a"), std::to_string(l1.size() + l3.size() + 2));
  EXPECT_EQ(report.output.at("b"), std::to_string(l2.size() + 1));
}

TEST(Filter, TargetedStatsOnlyOneKey) {
  const auto data = lines({"1\ta\txx", "2\tb\tyy", "3\ta\tzz"});
  const auto report = run1(da::make_filter_stats_job("a"), data);
  EXPECT_TRUE(report.output.contains("a"));
  EXPECT_FALSE(report.output.contains("b"));
}

TEST(Filter, IsIoBoundCostProfile) {
  const auto f = da::make_filter_stats_job("x");
  EXPECT_LT(f.config.cost.cpu_s_per_mib, f.config.cost.io_s_per_mib);
}

// ---- golden reports ----

// Every app job over one fixed fig5 selection (32 nodes, 256 x 128 KiB
// movie blocks, the hottest key), serialized with its full output. The
// hashes pin the engine's observable behaviour: key order and per-key value
// order into every reducer (the stateful ones included), output, counters
// and every simulated field. Any engine change must leave them untouched,
// at every execution thread count.
TEST(AppGolden, Fig5SelectionReportsPinned) {
  namespace dc = datanet::core;
  dc::ExperimentConfig cfg;
  cfg.num_nodes = 32;
  cfg.block_size = 128 * 1024;
  cfg.replication = 3;
  cfg.slots_per_node = 2;
  cfg.seed = 2016;
  const auto ds = dc::make_movie_dataset(cfg, 256, 2000);
  const dc::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
  const std::string key = ds.hot_keys[0];

  const std::vector<std::pair<std::string, dm::Job>> jobs = {
      {"WordCount", da::make_word_count_job()},
      {"Histogram", da::make_word_histogram_job()},
      {"TopK", da::make_topk_search_job("a quietly brilliant film", 10)},
      {"DistinctUsers", da::make_distinct_users_job("rating=")},
      {"Sessionize", da::make_sessionize_job("rating=", 3600)},
      {"MovingAverage", da::make_moving_average_job(86400)},
      {"FilterStats", da::make_filter_stats_job("")},
  };
  const std::map<std::string, std::uint64_t> golden = {
      {"Selection", 0xcceed0e708e4ca4bULL},
      {"WordCount", 0x587146e395fa388fULL},
      {"Histogram", 0x6c0840c98ab326ccULL},
      {"TopK", 0xa9d91ef3a0a27523ULL},
      {"DistinctUsers", 0xf7b0b98ed01d94c0ULL},
      {"Sessionize", 0x1b9f3e43a728b0d3ULL},
      {"MovingAverage", 0xfbd9af97c0042b08ULL},
      {"FilterStats", 0x957c9416ebdae436ULL},
  };
  const auto hash_of = [](const dm::JobReport& r) {
    return datanet::common::hash_bytes(dm::report_to_json(r, true));
  };
  for (const std::uint32_t threads : {1u, 8u}) {
    cfg.execution_threads = threads;
    dc::DirectReadPolicy read(*ds.dfs, cfg.remote_read_penalty);
    dc::NoFaults faults;
    dc::AnalyticBackend timing;
    datanet::scheduler::DataNetScheduler sched;
    const auto sel = dc::SelectionRuntime(read, faults, timing)
                         .run(*ds.dfs, ds.path, key, sched, &net, cfg);
    std::map<std::string, std::uint64_t> got = {
        {"Selection", hash_of(sel.report)}};
    for (const auto& [name, job] : jobs) {
      got[name] = hash_of(dc::run_analysis(job, sel, cfg));
    }
    for (const auto& [name, h] : got) {
      EXPECT_EQ(h, golden.at(name))
          << name << " threads=" << threads << " got 0x" << std::hex << h;
    }
  }
}
