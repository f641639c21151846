// Stripe tables and the stripe-skipping filter: a table covers its block in
// line-aligned stripes whose counts add up to the block's census, and the
// filter that walks only the stripes admitting the key gives the full scan's
// output bytes and census on every kernel, for every key shape and line
// shape. At the runtime level a graph with tables and the same graph with
// tables stripped give identical selections and reports: every scheduler, 1
// and 4 threads, a kill/corrupt fault plan, and a delta-built DataNet over
// an appended file.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/simd_scan.hpp"
#include "datanet/datanet.hpp"
#include "datanet/experiment.hpp"
#include "datanet/selection_runtime.hpp"
#include "dfs/fault_injector.hpp"
#include "dfs/ingest.hpp"
#include "elasticmap/stripe_table.hpp"
#include "mapred/report_json.hpp"
#include "scheduler/datanet_sched.hpp"
#include "scheduler/flow_sched.hpp"
#include "scheduler/locality.hpp"
#include "scheduler/lpt.hpp"

namespace dc = datanet::core;
namespace dco = datanet::common;
namespace dd = datanet::dfs;
namespace de = datanet::elasticmap;
namespace dg = datanet::graph;
namespace dm = datanet::mapred;
namespace dsch = datanet::scheduler;
namespace dw = datanet::workload;

namespace {

std::vector<dco::ScanKernel> available_kernels() {
  std::vector<dco::ScanKernel> v;
  for (const auto k : {dco::ScanKernel::kScalar, dco::ScanKernel::kAvx2}) {
    if (dco::scan_kernel_available(k)) v.push_back(k);
  }
  return v;
}

// The bytes in a heap buffer of exactly their size, so a sanitizer build
// catches any read past the block's end.
class ExactBuffer {
 public:
  explicit ExactBuffer(std::string_view bytes)
      : data_(new char[bytes.size() == 0 ? 1 : bytes.size()]),
        size_(bytes.size()) {
    if (size_ > 0) std::memcpy(data_.get(), bytes.data(), size_);
  }
  [[nodiscard]] std::string_view view() const { return {data_.get(), size_}; }

 private:
  std::unique_ptr<char[]> data_;
  std::size_t size_;
};

de::StripeTable table_of(std::string_view block) {
  return de::StripeTable::scan(block, [](dw::SubDatasetId, std::uint64_t) {});
}

// Stripe-skipping filter vs the full scan (and the decode-all reference) on
// every kernel: same output bytes, same census, and never more bytes walked.
void expect_skip_equals_full_scan(std::string_view bytes,
                                  const std::string& key,
                                  const std::string& label) {
  const ExactBuffer buffer(bytes);
  const std::string_view data = buffer.view();
  const de::StripeTable table = table_of(data);
  ASSERT_EQ(table.covered_bytes(), data.size()) << label;
  const std::uint64_t bits = de::stripe_bits(dw::subdataset_id(key));
  std::string reference;
  const dm::SplitCensus want = dc::filter_lines_decode_all(data, key, reference);
  for (const auto kernel : available_kernels()) {
    const std::string where =
        label + "/" + key + "/" + dco::scan_kernel_name(kernel);
    std::string full, skip;
    const dm::SplitCensus full_census = dc::filter_lines(data, key, full, kernel);
    std::uint64_t scanned = 0;
    const dm::SplitCensus skip_census =
        dc::filter_lines(data, key, skip, &table, bits, scanned, kernel);
    EXPECT_EQ(full, reference) << where;
    EXPECT_EQ(full_census, want) << where;
    EXPECT_EQ(skip, full) << where;
    EXPECT_EQ(skip_census, full_census) << where;
    EXPECT_LE(scanned, data.size()) << where;
  }
}

std::string record(std::uint64_t ts, std::string_view key,
                   std::string_view payload) {
  return std::to_string(ts) + "\t" + std::string(key) + "\t" +
         std::string(payload) + "\n";
}

// ≈9 KiB: "first" only in the first stripe, "last" only on the unterminated
// last line, "rare" once in the middle, "hot" on every third line, plus
// malformed, empty and CRLF lines and one line longer than a stripe.
std::string mixed_block() {
  std::string b = record(1, "first", "only at the start");
  for (std::uint64_t i = 0; i < 160; ++i) {
    const std::string key =
        i % 3 == 0 ? "hot" : "filler" + std::to_string(i % 17);
    b += record(100 + i, key, "payload words for line " + std::to_string(i));
    if (i == 40) b += "not a record\n\n\t\t\nxx\thot\tbad timestamp\n";
    if (i == 70) b += record(9, "rare", "once");
    if (i == 90) b += "17\thot\tcrlf terminated\r\n\r\n";
    if (i == 120) b += record(5, "filler3", std::string(3000, 'z'));
  }
  b += "99\tlast\tunterminated";
  return b;
}

const std::vector<std::string> kMixedKeys = {
    "first", "last", "rare", "hot", "filler3", "absent", "xx", "ho"};

}  // namespace

// ---- the table ----

TEST(StripeTable, StripesCoverTheBlockAtLineStartsWithItsCensus) {
  const std::string block = mixed_block();
  const de::StripeTable table = table_of(block);
  const auto stripes = table.stripes();
  ASSERT_GT(stripes.size(), 5u);
  EXPECT_EQ(table.covered_bytes(), block.size());
  EXPECT_EQ(table.memory_bytes(), stripes.size() * sizeof(de::Stripe));
  std::uint64_t begin = 0, records = 0, skipped = 0;
  for (const de::Stripe& s : stripes) {
    ASSERT_GT(s.end, begin);
    // Every cut but the last is a line start; a stripe past its budget
    // holds one (long) line.
    if (s.end != block.size()) {
      EXPECT_EQ(block[s.end - 1], '\n');
    }
    if (s.end - begin > de::kStripeBytes) {
      EXPECT_EQ(s.records + s.skipped, 1u);
    }
    records += s.records;
    skipped += s.skipped;
    begin = s.end;
  }
  std::string unused;
  const dm::SplitCensus full = dc::filter_lines_decode_all(block, "x", unused);
  EXPECT_EQ(records, full.records);
  EXPECT_EQ(skipped, full.skipped);
}

TEST(StripeTable, EveryRecordSetsItsBitsInItsStripe) {
  const std::string block = mixed_block();
  const de::StripeTable table = table_of(block);
  const auto stripes = table.stripes();
  std::size_t s = 0;
  std::size_t start = 0;
  while (start < block.size()) {
    std::size_t end = block.find('\n', start);
    if (end == std::string::npos) end = block.size();
    while (stripes[s].end <= start) ++s;
    ASSERT_LE(end, stripes[s].end) << "a line crosses a stripe end";
    std::string_view line = std::string_view(block).substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (const auto rv = dw::decode_record(line)) {
      const std::uint64_t bits = de::stripe_bits(rv->id());
      EXPECT_EQ(stripes[s].bloom & bits, bits) << rv->key;
    }
    start = end + 1;
  }
}

TEST(StripeTable, ShortEmptyAndBlankBlocks) {
  const de::StripeTable one = table_of("1\tk\tv\n2\tj\tw");
  ASSERT_EQ(one.stripes().size(), 1u);
  EXPECT_EQ(one.stripes()[0].records, 2u);
  EXPECT_EQ(one.covered_bytes(), 11u);

  EXPECT_TRUE(table_of("").stripes().empty());
  EXPECT_EQ(table_of("").covered_bytes(), 0u);

  const de::StripeTable blank = table_of("\n\r\n\n");
  ASSERT_EQ(blank.stripes().size(), 1u);
  EXPECT_EQ(blank.stripes()[0].bloom, 0u);
  EXPECT_EQ(blank.stripes()[0].records + blank.stripes()[0].skipped, 0u);
  EXPECT_EQ(blank.covered_bytes(), 4u);
}

TEST(StripeTable, ScanHandsEveryRecordToTheCallback) {
  const std::string block = mixed_block();
  std::uint64_t count = 0, bytes = 0;
  (void)de::StripeTable::scan(block,
                              [&](dw::SubDatasetId, std::uint64_t size) {
                                ++count;
                                bytes += size;
                              });
  std::uint64_t want_count = 0, want_bytes = 0;
  (void)dw::for_each_record(block, [&](const dw::RecordView& rv) {
    ++want_count;
    want_bytes += rv.encoded_size();
  });
  EXPECT_EQ(count, want_count);
  EXPECT_EQ(bytes, want_bytes);
}

// ---- the filter ----

TEST(StripeSkip, EqualsFullScanOnEveryKeyShapeAndKernel) {
  const std::string block = mixed_block();
  for (const std::string& key : kMixedKeys) {
    expect_skip_equals_full_scan(block, key, "mixed");
  }
  // The absent key walks far less than the block; the first-stripe key only
  // its stripe.
  const ExactBuffer buffer(block);
  const de::StripeTable table = table_of(buffer.view());
  for (const char* key : {"absent", "first"}) {
    std::string out;
    std::uint64_t scanned = 0;
    (void)dc::filter_lines(buffer.view(), key, out, &table,
                           de::stripe_bits(dw::subdataset_id(key)), scanned,
                           dco::active_scan_kernel());
    EXPECT_LT(scanned, block.size() / 4) << key;
  }
}

TEST(StripeSkip, EqualsFullScanOnShortAndDegenerateBlocks) {
  const std::vector<std::string> blocks = {
      "",
      "\n",
      "\r\n",
      "1\thot\tv",
      "1\thot\tv\n",
      "1\thot\tv\r\n2\tcold\tw\r\n",
      "garbage\n\n\t\t\n",
      "1\thot\t" + std::string(5000, 'p') + "\n2\thot\tq",
      std::string(3000, 'x') + "\n3\thot\tafter a long malformed line\n",
  };
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for (const std::string key : {"hot", "cold", "absent"}) {
      expect_skip_equals_full_scan(blocks[i], key,
                                   "degenerate#" + std::to_string(i));
    }
  }
}

TEST(StripeSkip, EqualsFullScanOnRandomCorpora) {
  dco::Rng rng(31);
  const std::vector<std::string> keys = {"a", "bb", "hot", "k12", "zz9"};
  for (int round = 0; round < 12; ++round) {
    std::string block;
    const std::uint64_t lines = 50 + rng.bounded(400);
    for (std::uint64_t i = 0; i < lines; ++i) {
      const std::uint64_t shape = rng.bounded(20);
      const std::string& key = keys[rng.bounded(keys.size())];
      if (shape == 0) {
        block += "\n";
      } else if (shape == 1) {
        block += "x\t" + key + "\tmalformed\n";
      } else if (shape == 2) {
        block += std::to_string(i) + "\t" + key + "\tcrlf\r\n";
      } else {
        block += record(i, key,
                        std::string(1 + rng.bounded(shape * 12), 'w'));
      }
    }
    if (round % 2 == 1) block += "7\tbb\ttail";
    for (const std::string& key : keys) {
      expect_skip_equals_full_scan(block, key,
                                   "random#" + std::to_string(round));
    }
    expect_skip_equals_full_scan(block, "absent",
                                 "random#" + std::to_string(round));
  }
}

TEST(StripeSkip, NullOrMismatchedTableScansTheWholeBlock) {
  const std::string block = mixed_block();
  const de::StripeTable table = table_of(block);
  const std::string key = "hot";
  const std::uint64_t bits = de::stripe_bits(dw::subdataset_id(key));
  // A table over other bytes (here: the block one byte longer) is ignored.
  const std::string_view shorter(block.data(), block.size() - 1);
  std::string full, skip, null_table;
  const auto want = dc::filter_lines(shorter, key, full);
  std::uint64_t scanned = 0;
  EXPECT_EQ(dc::filter_lines(shorter, key, skip, &table, bits, scanned,
                             dco::active_scan_kernel()),
            want);
  EXPECT_EQ(skip, full);
  EXPECT_EQ(scanned, shorter.size());
  scanned = 0;
  EXPECT_EQ(dc::filter_lines(shorter, key, null_table, nullptr, bits, scanned,
                             dco::active_scan_kernel()),
            want);
  EXPECT_EQ(null_table, full);
  EXPECT_EQ(scanned, shorter.size());
}

// ---- the runtime ----

namespace {

dc::ExperimentConfig small_config() {
  dc::ExperimentConfig cfg;
  cfg.num_nodes = 8;
  cfg.block_size = 16 * 1024;
  cfg.seed = 5;
  return cfg;
}

std::vector<std::unique_ptr<dsch::TaskScheduler>> all_schedulers() {
  std::vector<std::unique_ptr<dsch::TaskScheduler>> v;
  v.push_back(std::make_unique<dsch::LocalityScheduler>(7));
  v.push_back(std::make_unique<dsch::LptScheduler>());
  v.push_back(std::make_unique<dsch::DataNetScheduler>());
  v.push_back(std::make_unique<dsch::FlowScheduler>());
  return v;
}

dg::BipartiteGraph stripped(const dg::BipartiteGraph& graph) {
  std::vector<dg::BlockVertex> blocks = graph.blocks();
  for (dg::BlockVertex& b : blocks) b.stripes = nullptr;
  return dg::BipartiteGraph(graph.num_nodes(), std::move(blocks));
}

dc::SelectionResult run_clean(const dd::MiniDfs& dfs,
                              const dg::BipartiteGraph& graph,
                              const std::string& key,
                              dsch::TaskScheduler& sched,
                              const dc::ExperimentConfig& cfg) {
  dc::DirectReadPolicy read(dfs, cfg.remote_read_penalty);
  dc::NoFaults faults;
  dc::AnalyticBackend timing;
  return dc::SelectionRuntime(read, faults, timing)
      .run_graph(dfs, graph, key, sched, cfg);
}

void expect_same_selection(const dc::SelectionResult& skip,
                           const dc::SelectionResult& full,
                           const std::string& label) {
  EXPECT_EQ(skip.node_local_data, full.node_local_data) << label;
  EXPECT_EQ(skip.node_filtered_bytes, full.node_filtered_bytes) << label;
  EXPECT_EQ(skip.assignment.block_to_node, full.assignment.block_to_node)
      << label;
  EXPECT_EQ(skip.blocks_scanned, full.blocks_scanned) << label;
  EXPECT_EQ(skip.lost_block_ids, full.lost_block_ids) << label;
  EXPECT_EQ(dm::report_to_json(skip.report, true),
            dm::report_to_json(full.report, true))
      << label;
  EXPECT_LE(skip.scanned_bytes, full.scanned_bytes) << label;
}

// The keys of a movie dataset worth checking: the hottest, the last hot
// one, the rarest present one, and an absent one.
std::vector<std::string> probe_keys(const dc::StoredDataset& ds) {
  std::map<std::string, std::uint64_t> counts;
  for (const dd::BlockId b : ds.dfs->blocks_of(ds.path)) {
    (void)dw::for_each_record(ds.dfs->read_block(b),
                              [&](const dw::RecordView& r) {
                                ++counts[std::string(r.key)];
                              });
  }
  auto rarest = counts.begin();
  for (auto it = counts.begin(); it != counts.end(); ++it) {
    if (it->second < rarest->second) rarest = it;
  }
  return {ds.hot_keys[0], ds.hot_keys.back(), rarest->first, "no_such_movie"};
}

}  // namespace

TEST(StripeSkip, RuntimeSelectionsEqualStrippedGraphAllSchedulersAndThreads) {
  auto cfg = small_config();
  const auto ds = dc::make_movie_dataset(cfg, 48, 300);
  const dc::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
  for (const std::string& key : probe_keys(ds)) {
    const dg::BipartiteGraph graph = net.scheduling_graph(key);
    for (const auto& v : graph.blocks()) ASSERT_NE(v.stripes, nullptr);
    const dg::BipartiteGraph bare = stripped(graph);
    for (const std::uint32_t threads : {1u, 4u}) {
      cfg.execution_threads = threads;
      auto skip_scheds = all_schedulers();
      auto full_scheds = all_schedulers();
      for (std::size_t i = 0; i < skip_scheds.size(); ++i) {
        const std::string label = key + "/" +
                                  std::string(skip_scheds[i]->name()) +
                                  "/threads=" + std::to_string(threads);
        const auto skip = run_clean(*ds.dfs, graph, key, *skip_scheds[i], cfg);
        const auto full = run_clean(*ds.dfs, bare, key, *full_scheds[i], cfg);
        expect_same_selection(skip, full, label);
        std::uint64_t block_bytes = 0;
        for (const auto& v : graph.blocks()) {
          block_bytes += ds.dfs->block(v.block_id).size_bytes;
        }
        EXPECT_EQ(full.scanned_bytes, block_bytes) << label;
      }
    }
  }
}

TEST(StripeSkip, HotKeyScansLessThanItsCandidateBlocks) {
  const auto cfg = small_config();
  const auto ds = dc::make_movie_dataset(cfg, 48, 300);
  const dc::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
  const std::string& key = ds.hot_keys[0];
  const dg::BipartiteGraph graph = net.scheduling_graph(key);
  dsch::DataNetScheduler a, b;
  const auto skip = run_clean(*ds.dfs, graph, key, a, cfg);
  const auto full = run_clean(*ds.dfs, stripped(graph), key, b, cfg);
  EXPECT_GT(skip.scanned_bytes, 0u);
  EXPECT_LT(skip.scanned_bytes, full.scanned_bytes);
}

TEST(StripeSkip, FaultedRunEqualsStrippedGraph) {
  const auto cfg = small_config();
  // Each run gets its own identical dataset: the plan mutates the DFS.
  const auto run = [&](bool tables) {
    auto ds = dc::make_movie_dataset(cfg, 32, 200);
    const dc::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
    const std::string& key = ds.hot_keys[0];
    const dg::BipartiteGraph graph = net.scheduling_graph(key);
    std::vector<dd::FaultEvent> plan = {
        {.at_task = 0, .kind = dd::FaultKind::kCorruptReplica, .node = 0,
         .block = graph.block(0).block_id},
        {.at_task = 1, .kind = dd::FaultKind::kCorruptReplica, .node = 1,
         .block = graph.block(1).block_id},
        {.at_task = 3, .kind = dd::FaultKind::kKillNode, .node = 2},
        {.at_task = 6, .kind = dd::FaultKind::kKillNode, .node = 5}};
    dd::FaultInjector injector(*ds.dfs, std::move(plan));
    dc::ChecksumRetryReadPolicy read(*ds.dfs, cfg.remote_read_penalty);
    dc::InjectedFaults faults(injector);
    dc::AnalyticBackend timing;
    dsch::DataNetScheduler sched;
    return dc::SelectionRuntime(read, faults, timing)
        .run_graph(*ds.dfs, tables ? graph : stripped(graph), key, sched, cfg);
  };
  const auto skip = run(true);
  const auto full = run(false);
  EXPECT_GT(full.report.retries, 0u);
  expect_same_selection(skip, full, "faulted");
}

TEST(StripeSkip, DeltaBuiltDataNetOverAnAppendedFile) {
  const auto cfg = small_config();
  auto ds = dc::make_movie_dataset(cfg, 24, 200);
  const std::shared_ptr<dd::MiniDfs> mini(std::move(ds.dfs));
  const dc::DataNet base(mini, ds.path, {.alpha = 0.3});
  const std::uint64_t covered = base.meta().num_blocks();

  // Append the file's own records again: new blocks, same keys.
  std::vector<std::string> lines;
  for (const dd::BlockId b : mini->blocks_of(ds.path)) {
    (void)dw::for_each_record(mini->read_block(b), [&](const dw::RecordView& r) {
      lines.push_back(std::to_string(r.timestamp) + "\t" + std::string(r.key) +
                      "\t" + std::string(r.payload));
    });
  }
  {
    dd::Ingestor ing(*mini, ds.path);
    for (std::size_t i = 0; i < lines.size() / 3; ++i) ing.append(lines[i]);
  }
  const dc::DataNet delta(mini, ds.path, base.meta());
  ASSERT_GT(delta.meta().num_blocks(), covered);
  const dc::DataNet fresh(*mini, ds.path, {.alpha = 0.3});
  for (std::uint64_t b = 0; b < delta.meta().num_blocks(); ++b) {
    const auto& got = delta.meta().stripe_table(b)->stripes();
    const auto& want = fresh.meta().stripe_table(b)->stripes();
    ASSERT_EQ(got.size(), want.size()) << b;
    for (std::size_t s = 0; s < got.size(); ++s) {
      EXPECT_EQ(got[s].bloom, want[s].bloom);
      EXPECT_EQ(got[s].end, want[s].end);
      EXPECT_EQ(got[s].records, want[s].records);
      EXPECT_EQ(got[s].skipped, want[s].skipped);
    }
  }
  // The covered blocks share the base's tables rather than copying them.
  EXPECT_EQ(delta.meta().stripe_table(0), base.meta().stripe_table(0));

  for (const std::string& key : {ds.hot_keys[0], ds.hot_keys.back(),
                                 std::string("no_such_movie")}) {
    const dg::BipartiteGraph graph = delta.scheduling_graph(key);
    dsch::DataNetScheduler a, b;
    const auto skip = run_clean(*mini, graph, key, a, cfg);
    const auto full = run_clean(*mini, stripped(graph), key, b, cfg);
    expect_same_selection(skip, full, "delta/" + key);
  }
}

TEST(StripeSkip, MismatchedTablesFallBackToWholeBlockScans) {
  const auto cfg = small_config();
  const auto ds = dc::make_movie_dataset(cfg, 24, 200);
  const dc::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
  const std::string& key = ds.hot_keys[0];
  const dg::BipartiteGraph graph = net.scheduling_graph(key);
  // Hand every vertex the table of a block of another size.
  std::vector<dg::BlockVertex> blocks = graph.blocks();
  std::uint64_t swapped = 0;
  for (std::size_t j = 0; j < blocks.size(); ++j) {
    const std::uint64_t size = ds.dfs->block(blocks[j].block_id).size_bytes;
    for (std::uint64_t b = 0; b < net.meta().num_blocks(); ++b) {
      const auto& table = net.meta().stripe_table(b);
      if (table->covered_bytes() == size) continue;
      blocks[j].stripes = table;
      ++swapped;
      break;
    }
  }
  ASSERT_EQ(swapped, blocks.size());
  const dg::BipartiteGraph mismatched(graph.num_nodes(), std::move(blocks));
  dsch::DataNetScheduler a, b;
  const auto got = run_clean(*ds.dfs, mismatched, key, a, cfg);
  const auto full = run_clean(*ds.dfs, stripped(graph), key, b, cfg);
  expect_same_selection(got, full, "mismatched");
  EXPECT_EQ(got.scanned_bytes, full.scanned_bytes);
}

TEST(StripeSkip, ConcurrentQueriesShareOneBundlesTables) {
  // As datanetd's connection handlers do: several threads build graphs from
  // one DataNet and filter through the same tables at once.
  const auto cfg = small_config();
  const auto ds = dc::make_movie_dataset(cfg, 32, 200);
  const dc::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
  const std::vector<std::string> keys = probe_keys(ds);
  std::vector<dc::SelectionResult> golden;
  for (const std::string& key : keys) {
    dsch::DataNetScheduler sched;
    golden.push_back(
        run_clean(*ds.dfs, stripped(net.scheduling_graph(key)), key, sched, cfg));
  }
  std::vector<std::vector<dc::SelectionResult>> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      auto qcfg = cfg;
      qcfg.execution_threads = t % 2 == 0 ? 1 : 2;
      for (const std::string& key : keys) {
        dsch::DataNetScheduler sched;
        got[t].push_back(
            run_clean(*ds.dfs, net.scheduling_graph(key), key, sched, qcfg));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < got.size(); ++t) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      EXPECT_EQ(got[t][k].node_local_data, golden[k].node_local_data)
          << t << "/" << keys[k];
      EXPECT_EQ(dm::report_to_json(got[t][k].report, true),
                dm::report_to_json(golden[k].report, true))
          << t << "/" << keys[k];
    }
  }
}

TEST(StripeSkip, MultiKeyGraphAndContentBlindGraphCarryTheRightHandles) {
  const auto cfg = small_config();
  const auto ds = dc::make_movie_dataset(cfg, 16, 100);
  const dc::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
  const std::vector<std::string> keys = {ds.hot_keys[0], ds.hot_keys[1]};
  const dg::BipartiteGraph multi = net.scheduling_graph(keys);
  ASSERT_GT(multi.num_blocks(), 0u);
  for (const auto& v : multi.blocks()) EXPECT_NE(v.stripes, nullptr);
  const auto blind = dg::BipartiteGraph::content_blind(*ds.dfs, ds.path);
  for (const auto& v : blind.blocks()) EXPECT_EQ(v.stripes, nullptr);
}
