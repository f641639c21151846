// PR 6 hot-path coverage: SIMD-vs-scalar scan equivalence fuzzing (every
// alignment offset 0..63, empty lines, partial key prefixes, missing final
// newline) of both the emitted lines and the record census, the same for
// the word kernels' (hash, word) sequences, the filter sink's counts
// against the FilterStats mapper, Arena/ArenaAllocator unit tests, the O(1)
// under-replication counter against fsck after every mutation kind, the
// ReplicationMonitor's epoch-gated scan skip, and parallel_for's inline
// small-range fast path.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/filter.hpp"
#include "common/arena.hpp"
#include "common/hash.hpp"
#include "common/simd_scan.hpp"
#include "common/thread_pool.hpp"
#include "datanet/experiment.hpp"
#include "datanet/selection_runtime.hpp"
#include "dfs/fs_image.hpp"
#include "dfs/fsck.hpp"
#include "dfs/replication_monitor.hpp"
#include "mapred/engine.hpp"
#include "workload/record.hpp"

namespace dc = datanet::core;
namespace dco = datanet::common;
namespace dfs = datanet::dfs;
namespace dm = datanet::mapred;

namespace {

std::vector<dco::ScanKernel> available_kernels() {
  std::vector<dco::ScanKernel> v;
  for (const auto k : {dco::ScanKernel::kScalar, dco::ScanKernel::kAvx2}) {
    if (dco::scan_kernel_available(k)) v.push_back(k);
  }
  return v;
}

// Independent reference for scan_key_lines: the exact pre-SIMD predicate,
// written with std::string_view primitives only.
std::vector<std::string> reference_key_lines(std::string_view data,
                                             std::string_view key) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < data.size()) {
    std::size_t end = data.find('\n', start);
    if (end == std::string_view::npos) end = data.size();
    std::string_view line = data.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) {
      const std::size_t tab = line.find('\t');
      if (tab != std::string_view::npos) {
        const std::string_view rest = line.substr(tab + 1);
        if (rest.size() > key.size() && rest[key.size()] == '\t' &&
            rest.compare(0, key.size(), key) == 0) {
          out.emplace_back(line);
        }
      }
    }
    start = end + 1;
  }
  return out;
}

std::vector<std::string> reference_lines(std::string_view data) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < data.size()) {
    std::size_t end = data.find('\n', start);
    if (end == std::string_view::npos) end = data.size();
    std::string_view line = data.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) out.emplace_back(line);
    start = end + 1;
  }
  return out;
}

struct Collect {
  std::vector<std::string> lines;
  static void sink(void* ctx, std::string_view line) {
    static_cast<Collect*>(ctx)->lines.emplace_back(line);
  }
};

std::vector<std::string> kernel_key_lines(std::string_view data,
                                          std::string_view key,
                                          dco::ScanKernel kernel,
                                          dco::LineCensus* census = nullptr) {
  Collect c;
  const dco::LineCensus got =
      dco::scan_key_lines(data, key, &c, &Collect::sink, kernel);
  if (census != nullptr) *census = got;
  return std::move(c.lines);
}

// The census every key scan must report: what workload::for_each_record
// decodes and skips.
dco::LineCensus reference_census(std::string_view data) {
  dco::LineCensus c;
  c.skipped = datanet::workload::for_each_record(
      data, [&](const datanet::workload::RecordView&) { ++c.records; });
  return c;
}

// filter_lines' counts must be the FilterStats job's over the same bytes:
// records and skipped lines, the key's records and their byte sum.
void expect_sink_matches_filter_stats(const std::string& corpus,
                                      const std::string& key,
                                      const std::string& label) {
  const dm::Engine engine({.num_nodes = 1, .execution_threads = 1});
  const dm::JobReport want = engine.run(
      datanet::apps::make_filter_stats_job(key), {{.node = 0, .data = corpus}});
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = want.counters.find(name);
    return it == want.counters.end() ? 0 : it->second;
  };
  const auto out = want.output.find(key);
  const std::uint64_t want_bytes =
      out == want.output.end() ? 0 : std::stoull(out->second);
  for (const auto kernel : available_kernels()) {
    std::string kept;
    const dm::SplitCensus got = dc::filter_lines(corpus, key, kept, kernel);
    const std::string where =
        label + " kernel=" + dco::scan_kernel_name(kernel);
    EXPECT_EQ(got.records, want.input_records) << where;
    EXPECT_EQ(got.skipped, want.skipped_lines) << where;
    EXPECT_EQ(got.matched, counter("records_matched")) << where;
    EXPECT_EQ(got.matched_bytes, want_bytes) << where;
  }
}

std::vector<std::string> kernel_lines(std::string_view data,
                                      dco::ScanKernel kernel) {
  Collect c;
  dco::scan_lines(data, &c, &Collect::sink, kernel);
  return std::move(c.lines);
}

// Every kernel must reproduce the reference callback sequence and census on
// `corpus` viewed at every alignment offset 0..63 (the SIMD stripes see the
// same bytes at every phase of the 64-byte window), and the filter sink's
// counts must match the FilterStats mapper's.
void expect_equivalent_at_all_alignments(const std::string& corpus,
                                         const std::string& key,
                                         const std::string& label) {
  std::vector<char> buf(corpus.size() + 64);
  for (std::size_t off = 0; off < 64; ++off) {
    std::memcpy(buf.data() + off, corpus.data(), corpus.size());
    const std::string_view view(buf.data() + off, corpus.size());
    const auto want_key = reference_key_lines(view, key);
    const auto want_all = reference_lines(view);
    const auto want_census = reference_census(view);
    for (const auto kernel : available_kernels()) {
      dco::LineCensus census;
      EXPECT_EQ(kernel_key_lines(view, key, kernel, &census), want_key)
          << label << " key-scan kernel=" << dco::scan_kernel_name(kernel)
          << " offset=" << off;
      EXPECT_EQ(census.records, want_census.records)
          << label << " census kernel=" << dco::scan_kernel_name(kernel)
          << " offset=" << off;
      EXPECT_EQ(census.skipped, want_census.skipped)
          << label << " census kernel=" << dco::scan_kernel_name(kernel)
          << " offset=" << off;
      EXPECT_EQ(kernel_lines(view, kernel), want_all)
          << label << " line-scan kernel=" << dco::scan_kernel_name(kernel)
          << " offset=" << off;
    }
  }
  expect_sink_matches_filter_stats(corpus, key, label);
}

dc::ExperimentConfig small_config() {
  dc::ExperimentConfig cfg;
  cfg.num_nodes = 8;
  cfg.block_size = 16 * 1024;
  cfg.seed = 5;
  return cfg;
}

}  // namespace

// ---- SIMD-vs-scalar equivalence ----

TEST(SimdScan, DegenerateShapesAllKernelsAllAlignments) {
  const std::string key = "movie_1";
  const std::string shapes[] = {
      "",                                  // empty input
      "\n\n\n",                            // only empty lines
      "no tabs at all",                    // no newline terminator, no tab
      "1\tmovie_1\tpayload",               // match without trailing newline
      "1\tmovie_1\t",                      // empty payload still matches
      "1\tmovie_1",                        // no payload tab: not a candidate
      "1\tmovie_12\tx\n2\tmovie_1\ty\n",   // partial-prefix neighbor
      "1\tmovie_\tx\n\n3\tmovie_1\tz",     // short field, blank line, tail
      "movie_1\tmovie_1\tx\n",             // key also in the timestamp slot
      "\t\t\n\t\tmovie_1\t\n",             // empty fields everywhere
      std::string(200, 'a') + "\t" + key + "\t" + std::string(300, 'b'),
      // Timestamps: leading zeros are legal; 19 digits always fit, 20 may,
      // 21 never do unless they are leading zeros.
      "007\tmovie_1\tleading zeros\n0\tmovie_1\tzero\n00\tmovie_1\tz\n",
      "1234567890123456789\tmovie_1\t19 digits\n",
      "18446744073709551615\tmovie_1\tu64 max\n",
      "18446744073709551616\tmovie_1\tone past u64 max\n",
      "99999999999999999999\tmovie_1\t20 digits, overflow\n",
      "123456789012345678901\tmovie_1\t21 digits\n",
      "000000000000000000000000042\tmovie_1\tlong leading zeros\n",
      "1234567890123456\tmovie_1\t16 digits\n",
      "12a\tmovie_1\tx\n+5\tmovie_1\tx\n-5\tmovie_1\tx\n 5\tmovie_1\tx\n",
      // An empty key field, a lone tab, a tab at the line start.
      "1\t\tx\n\t\n5\t\n\t5\tmovie_1\tp\n5\tmovie_1\n",
      // Key fields past 16 bytes; a second tab far away, or none at all.
      "1\t" + std::string(40, 'k') + "\tp\n2\t" + std::string(40, 'k') + "\n",
      "3\tmovie_1" + std::string(20, 'x') + "\n4\tabc\n5\tabc\t\n",
  };
  for (const auto& shape : shapes) {
    expect_equivalent_at_all_alignments(shape, key, "shape");
  }
}

TEST(SimdScan, CrlfShapesAllKernelsAllAlignments) {
  // PR 7 scan-edge fix: Windows-style records must match and must not leak
  // '\r' into the emitted line; exactly ONE trailing '\r' is stripped, and
  // only at end of line.
  const std::string key = "movie_1";
  const std::string shapes[] = {
      "1\tmovie_1\tp\r\n",                  // plain CRLF record
      "1\tmovie_1\tp\r",                    // CR tail, no newline
      "\r\n\r\n\r\n",                       // only blank CRLF lines
      "\r",                                 // lone CR is a blank line
      "1\tmovie_1\tp\r\r\n",                // only ONE '\r' stripped
      "1\tmovie_1\r\tp\n",                  // CR mid-line stays put
      "1\tmovie_1\t\r\n",                   // empty payload, CRLF
      "1\tmovie_1\tp\r\n2\tmovie_1\tq\n",   // mixed terminators
      "1\tmovie_12\tx\r\n2\tmovie_1\ty\r",  // prefix neighbor + CR tail
      std::string("9\t") + key + "\t" + std::string(300, 'b') + "\r\n",
      "1\r2\tmovie_1\tp\r\n",                // CR inside the timestamp
      "1\tmovie_1\r\n",                       // one tab once CR is gone
      "12\t\r\tp\n",                         // key field is a lone CR
      "\r\r\n5\t\r\n7\tmovie_1\t\r",         // CR-only line, CR tails
  };
  for (const auto& shape : shapes) {
    expect_equivalent_at_all_alignments(shape, key, "crlf shape");
  }
}

TEST(SimdScan, FuzzRandomCorporaAllKernelsAllAlignments) {
  std::mt19937_64 rng(20160807);
  const std::string keys[] = {"k", "movie_1", "a_rather_long_key_name"};
  for (int round = 0; round < 6; ++round) {
    const std::string& key = keys[round % 3];
    std::string corpus;
    std::uniform_int_distribution<int> line_kind(0, 7);
    std::uniform_int_distribution<int> len(0, 40);
    std::uniform_int_distribution<int> ch('a', 'z');
    for (int line = 0; line < 120; ++line) {
      switch (line_kind(rng)) {
        case 0:  // well-formed matching record
          corpus += std::to_string(line) + "\t" + key + "\tp";
          break;
        case 1: {  // well-formed non-matching record
          corpus += std::to_string(line) + "\t" + key;
          corpus += static_cast<char>(ch(rng));  // key is a strict prefix
          corpus += "\tp";
          break;
        }
        case 2:  // truncated key field
          corpus += "9\t" + key.substr(0, key.size() / 2) + "\tp";
          break;
        case 3:  // random junk, maybe tab-free
          for (int i = len(rng); i > 0; --i) {
            corpus += static_cast<char>(ch(rng));
          }
          break;
        case 4:  // empty line
          break;
        case 5:  // tabs only
          corpus += "\t\t\t";
          break;
        case 6: {  // 1..24-digit timestamp, often zero-led, maybe overflowing
          std::uniform_int_distribution<int> digits(1, 24);
          std::uniform_int_distribution<int> digit('0', '9');
          for (int i = digits(rng); i > 0; --i) {
            corpus += static_cast<char>(line_kind(rng) < 2 ? '0' : digit(rng));
          }
          corpus += "\t" + key + "\tp";
          break;
        }
        case 7: {  // shape noise: digits, tabs, CRs and letters
          const char noise[] = {'0', '7', '9', '\t', '\t', '\r', 'a', ' '};
          std::uniform_int_distribution<int> pick(0, 7);
          for (int i = len(rng); i > 0; --i) corpus += noise[pick(rng)];
          break;
        }
      }
      // A third of the lines end Windows-style; kernels must treat "\r\n"
      // and "\n" terminators identically.
      if (line_kind(rng) < 2) corpus += '\r';
      corpus += '\n';
    }
    if (round % 2 == 0) corpus.pop_back();  // exercise the unterminated tail
    expect_equivalent_at_all_alignments(corpus, key, "fuzz round " +
                                                         std::to_string(round));
  }
}

TEST(SimdScan, FilterLinesMatchesDecodeAllReferenceOnEveryKernel) {
  // filter_lines (candidate pre-scan + decode) must keep exactly the lines
  // the decode-every-line reference keeps, on every kernel.
  std::string corpus;
  for (int i = 0; i < 500; ++i) {
    corpus += std::to_string(1000 + i) + "\tkey_" + std::to_string(i % 7) +
              "\tpayload " + std::to_string(i) + "\n";
  }
  corpus += "not a record\n123\tkey_3\n";  // malformed tails
  const std::string key = "key_3";
  std::string want;
  const auto want_census = dc::filter_lines_decode_all(corpus, key, want);
  for (const auto kernel : available_kernels()) {
    std::string got;
    const auto got_census = dc::filter_lines(corpus, key, got, kernel);
    EXPECT_EQ(got, want) << dco::scan_kernel_name(kernel);
    EXPECT_TRUE(got_census == want_census) << dco::scan_kernel_name(kernel);
  }
  EXPECT_EQ(want_census.records, 500u);
  EXPECT_EQ(want_census.skipped, 2u);
  EXPECT_EQ(want_census.matched, 71u);
}

TEST(SimdScan, DispatcherAndAvailability) {
  EXPECT_TRUE(dco::scan_kernel_available(dco::ScanKernel::kScalar));
  EXPECT_TRUE(dco::scan_kernel_available(dco::active_scan_kernel()));
  // An explicitly-requested unavailable kernel throws instead of silently
  // falling back (the bench must never mislabel a series).
  if (!dco::scan_kernel_available(dco::ScanKernel::kAvx2)) {
    Collect c;
    EXPECT_THROW(
        dco::scan_lines("x\n", &c, &Collect::sink, dco::ScanKernel::kAvx2),
        std::invalid_argument);
    std::vector<dco::Word> words;
    std::string lowered;
    EXPECT_THROW(dco::scan_words("x", words, lowered, dco::ScanKernel::kAvx2),
                 std::invalid_argument);
  }
}

// ---- word kernels ----

namespace {

using HashedWords = std::vector<std::pair<std::uint64_t, std::string>>;

HashedWords kernel_words(std::string_view text, dco::ScanKernel kernel) {
  std::vector<dco::Word> words;
  std::string lowered;
  dco::scan_words(text, words, lowered, kernel);
  HashedWords out;
  for (const dco::Word& w : words) out.emplace_back(w.hash, w.view);
  return out;
}

// Every kernel must give the scalar kernel's (hash, word) sequence on `text`
// at every alignment offset 0..63, each hash word_hash of its word. The
// text sits at the end of a heap buffer, so a kernel that reads past it
// trips ASan.
void expect_words_equivalent_at_all_alignments(const std::string& text,
                                               const std::string& label) {
  for (std::size_t off = 0; off < 64; ++off) {
    const auto buf = std::make_unique<char[]>(off + text.size());
    std::memcpy(buf.get() + off, text.data(), text.size());
    const std::string_view view(buf.get() + off, text.size());
    const HashedWords want = kernel_words(view, dco::ScanKernel::kScalar);
    for (const auto& [hash, word] : want) {
      ASSERT_EQ(hash, dco::word_hash(word)) << label << " word " << word;
    }
    for (const auto kernel : available_kernels()) {
      ASSERT_EQ(kernel_words(view, kernel), want)
          << label << " kernel=" << dco::scan_kernel_name(kernel)
          << " offset=" << off;
    }
  }
}

}  // namespace

TEST(WordScan, DegenerateShapesAllKernelsAllAlignments) {
  std::string every_byte;
  for (int b = 0; b < 256; ++b) {
    every_byte += static_cast<char>(b);
    every_byte += "a";
    every_byte += static_cast<char>(b);
    every_byte += " ";
  }
  std::string byte_runs;  // each byte value as a 3-byte run
  for (int b = 0; b < 256; ++b) byte_runs.append(3, static_cast<char>(b));
  const std::string shapes[] = {
      "",
      " ",
      std::string(200, ' '),
      " ,.;:!?-\t\n\r\"()[]{}<>/\\|@#$%^&*_+=~`" + std::string(70, '.'),
      "a",
      "'",
      "'''",
      "don't 'tis rock'n'roll' o'",
      "Hello World",
      "HELLO WORLD MiXeD cAsE 42ND",
      "ABCDEFGHIJKLMNOPQRSTUVWXYZ abcdefghijklmnopqrstuvwxyz 0123456789",
      std::string(15, 'a') + " " + std::string(16, 'B') + " " +
          std::string(17, 'c') + " " + std::string(65, 'D') + " " +
          std::string(130, 'e'),
      std::string(64, 'x'),
      std::string(64, 'x') + " ",
      " " + std::string(64, 'x'),
      std::string(63, 'y') + "," + std::string(64, 'Z') + "," +
          std::string(1, 'w'),
      every_byte,
      byte_runs,
  };
  for (const auto& shape : shapes) {
    expect_words_equivalent_at_all_alignments(shape, "shape");
  }
}

TEST(WordScan, WordsStraddlingStripeEdgesAllKernelsAllAlignments) {
  // A word of each interesting length starting at every position around
  // the 32- and 64-byte edges, in lower and mixed case.
  for (const std::size_t len : {1, 15, 16, 17, 31, 32, 33, 64, 65, 100}) {
    for (std::size_t pos = 0; pos < 72; ++pos) {
      std::string text(pos, ' ');
      for (std::size_t i = 0; i < len; ++i) {
        text += static_cast<char>((i % 3 == 0 ? 'A' : 'a') + i % 26);
      }
      text += " tail";
      const std::string lower = [&] {
        std::string t = text;
        for (char& c : t) c = static_cast<char>(std::tolower(c));
        return t;
      }();
      expect_words_equivalent_at_all_alignments(
          text, "len=" + std::to_string(len) + " pos=" + std::to_string(pos));
      expect_words_equivalent_at_all_alignments(
          lower,
          "lower len=" + std::to_string(len) + " pos=" + std::to_string(pos));
    }
  }
}

TEST(WordScan, FuzzRandomTextAllKernelsAllAlignments) {
  std::mt19937_64 rng(4242);
  const std::string alphabet = "abcXYZ09' ,.\t-";
  for (int round = 0; round < 60; ++round) {
    std::string text(rng() % 300, '\0');
    const bool ascii_heavy = round % 2 == 0;
    for (char& ch : text) {
      ch = ascii_heavy && rng() % 10 < 8
               ? alphabet[rng() % alphabet.size()]
               : static_cast<char>(rng() % 256);
    }
    expect_words_equivalent_at_all_alignments(
        text, "round=" + std::to_string(round));
  }
}

// ---- Arena ----

TEST(Arena, AlignmentAndDistinctPointers) {
  dco::Arena arena;
  auto* a = arena.allocate(1, 1);
  auto* b = arena.allocate(8, 8);
  auto* c = arena.allocate(3, 64);
  EXPECT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
  // Zero-byte requests still yield distinct pointers.
  EXPECT_NE(arena.allocate(0, 1), arena.allocate(0, 1));
  EXPECT_GT(arena.bytes_used(), 0u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
}

TEST(Arena, EveryPowerOfTwoAlignmentUpTo128OnBothPaths) {
  // PR 7 hardening: over-aligned requests must come back aligned on BOTH
  // allocation paths — the bump-pointer chunk path and the dedicated
  // large-object path — even when preceded by odd-sized allocations that
  // leave the bump pointer misaligned.
  dco::Arena arena(4096);
  for (std::size_t align = 1; align <= 128; align *= 2) {
    (void)arena.allocate(1, 1);  // wedge the bump pointer off-alignment
    void* small = arena.allocate(24, align);
    ASSERT_NE(small, nullptr) << "align=" << align;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(small) % align, 0u)
        << "chunk path align=" << align;
    std::memset(small, 0x5a, 24);
    void* large = arena.allocate(64 * 1024, align);  // > chunk: own block
    ASSERT_NE(large, nullptr) << "align=" << align;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(large) % align, 0u)
        << "large path align=" << align;
    std::memset(large, 0xa5, 64 * 1024);
  }
}

TEST(Arena, ResetRetainsChunksAndReusesMemory) {
  dco::Arena arena(1024);
  void* first = arena.allocate(100, 8);
  for (int i = 0; i < 50; ++i) (void)arena.allocate(100, 8);
  const auto reserved = arena.bytes_reserved();
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);  // chunks retained
  EXPECT_EQ(arena.allocate(100, 8), first);     // bump pointer rewound
}

TEST(Arena, LargeObjectFallbackFreedOnReset) {
  dco::Arena arena(1024);
  (void)arena.allocate(16, 8);
  const auto small_reserved = arena.bytes_reserved();
  auto* big = arena.allocate(1 << 20, 64);
  EXPECT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % 64, 0u);
  EXPECT_GE(arena.bytes_reserved(), small_reserved + (1u << 20));
  std::memset(big, 0xab, 1 << 20);  // the block must really be ours
  arena.reset();
  // Dedicated large blocks are released; normal chunks stay.
  EXPECT_LT(arena.bytes_reserved(), 1u << 20);
}

TEST(Arena, ArenaVectorGrowsCorrectly) {
  dco::Arena arena;
  dco::ArenaVector<int> v{dco::ArenaAllocator<int>(arena)};
  for (int i = 0; i < 10000; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 10000u);
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(v[i], i);
  dco::ArenaVector<std::string> s{dco::ArenaAllocator<std::string>(arena)};
  for (int i = 0; i < 100; ++i) {
    s.push_back("value_" + std::to_string(i) + std::string(i, 'x'));
  }
  EXPECT_EQ(s[99], "value_99" + std::string(99, 'x'));
}

// ---- O(1) under-replication counter vs fsck ----

namespace {
void expect_counter_matches_fsck(const dfs::MiniDfs& d, const char* where) {
  EXPECT_EQ(d.under_replicated_count(), dfs::fsck(d).under_replicated)
      << where;
}
}  // namespace

TEST(HotPath, UnderReplicatedCounterTracksFsckThroughMutations) {
  auto cfg = small_config();
  cfg.inline_repair = false;
  const auto ds = dc::make_movie_dataset(cfg, 24, 200);
  auto& d = *ds.dfs;
  expect_counter_matches_fsck(d, "fresh dataset");
  const auto epoch0 = d.mutation_epoch();

  (void)d.decommission(1);
  expect_counter_matches_fsck(d, "after decommission");
  EXPECT_GT(d.under_replicated_count(), 0u);
  EXPECT_GT(d.mutation_epoch(), epoch0);

  const auto& blocks = d.blocks_of(ds.path);
  d.corrupt_replica(blocks[0], d.block(blocks[0]).replicas[0]);
  (void)d.report_corrupt_replica(blocks[0], d.block(blocks[0]).replicas[0]);
  expect_counter_matches_fsck(d, "after corrupt+report");

  d.corrupt_replica(blocks[1], d.block(blocks[1]).replicas[0]);
  (void)d.report_corrupt_replica(blocks[1], d.block(blocks[1]).replicas[0]);
  expect_counter_matches_fsck(d, "after second corrupt+report");

  while (d.under_replicated_count() > 0) {
    bool progressed = false;
    for (dfs::BlockId id = 0; id < d.num_blocks(); ++id) {
      if (d.repair_block(id)) progressed = true;
    }
    expect_counter_matches_fsck(d, "after repair sweep");
    if (!progressed) break;
  }

  (void)d.decommission(3);  // threshold shift: active_nodes moved
  expect_counter_matches_fsck(d, "after second decommission");
}

TEST(HotPath, UnderReplicatedCounterSurvivesFsImageRoundTrip) {
  auto cfg = small_config();
  cfg.inline_repair = false;
  const auto ds = dc::make_movie_dataset(cfg, 16, 100);
  (void)ds.dfs->decommission(2);
  const std::string path = ::testing::TempDir() + "/hotpath_fsimage.bin";
  dfs::FsImage::save(*ds.dfs, path);
  const auto loaded = dfs::FsImage::load(path);
  EXPECT_EQ(loaded.under_replicated_count(),
            dfs::fsck(loaded).under_replicated);
  EXPECT_EQ(loaded.under_replicated_count(), ds.dfs->under_replicated_count());
}

// ---- ReplicationMonitor epoch gate ----

TEST(HotPath, MonitorScanSkipsWhenEpochUnchanged) {
  auto cfg = small_config();
  cfg.inline_repair = false;
  const auto ds = dc::make_movie_dataset(cfg, 16, 100);
  (void)ds.dfs->decommission(1);
  dfs::ReplicationMonitor monitor(*ds.dfs, {.max_repairs_per_tick = 2});
  const auto depth1 = monitor.scan();
  const auto queue1 = monitor.queue();
  // No DFS mutation in between: the skip path must hand back the same queue.
  const auto depth2 = monitor.scan();
  EXPECT_EQ(depth1, depth2);
  const auto queue2 = monitor.queue();
  ASSERT_EQ(queue1.size(), queue2.size());
  for (std::size_t i = 0; i < queue1.size(); ++i) {
    EXPECT_EQ(queue1[i].block, queue2[i].block);
    EXPECT_EQ(queue1[i].surviving, queue2[i].surviving);
  }
  EXPECT_EQ(monitor.stats().scans, 2u);
  // Converge and verify the gate never left damage behind.
  (void)monitor.drain();
  EXPECT_TRUE(dfs::fsck(*ds.dfs).healthy());
  EXPECT_EQ(ds.dfs->under_replicated_count(), 0u);
}

// ---- parallel_for inline fast path ----

TEST(HotPath, ParallelForRunsSmallRangesInlineAndCoversAllIndices) {
  const auto caller = std::this_thread::get_id();
  // n <= grain: runs on the caller, no pool round trip.
  std::vector<std::thread::id> who(3);
  dco::parallel_for(4, 3, [&](std::size_t i) {
    who[i] = std::this_thread::get_id();
  }, /*grain=*/8);
  for (const auto& id : who) EXPECT_EQ(id, caller);
  // Width 1: every index runs on the caller, whatever the range.
  std::vector<std::thread::id> serial(100);
  dco::parallel_for(1, serial.size(), [&](std::size_t i) {
    serial[i] = std::this_thread::get_id();
  }, /*grain=*/1);
  for (const auto& id : serial) EXPECT_EQ(id, caller);
  // Large range still covers every index exactly once.
  std::vector<int> hits(10000, 0);
  dco::parallel_for(4, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) ASSERT_EQ(h, 1);
  // Degenerate empty range is a no-op.
  dco::parallel_for(4, 0, [&](std::size_t) { FAIL(); });
}

// ---- zero-copy pin lifetime (PR 7 bugfix regression) ----

TEST(HotPath, HealWaitsForPinnedReaderAndViewStaysStable) {
  // The PR 6 zero-copy reads handed out string_views into block storage with
  // no lifetime guard; a concurrent corrupt_block could rewrite the bytes
  // under a reader mid-scan. The fix pins the block: corrupt_block must
  // park until the pin drops, and the pinned view's bytes must not move.
  dfs::DfsOptions o;
  o.block_size = 1024;
  o.replication = 2;
  o.seed = 42;
  dfs::MiniDfs fs(dfs::ClusterTopology::flat(4), o);
  auto w = fs.create("/pinned");
  w.append("100\tk\t" + std::string(400, 'x'));
  w.close();
  const auto b = fs.blocks_of("/pinned")[0];

  dfs::PinnedRead read = fs.read_block_pinned(b);
  const std::string before(read.data);
  ASSERT_FALSE(before.empty());

  std::atomic<bool> heal_done{false};
  std::thread healer([&] {
    fs.corrupt_block(b);  // must block until the pin is released
    heal_done.store(true, std::memory_order_release);
  });
  // Give the healer ample time to (incorrectly) charge through the pin.
  for (int i = 0; i < 50; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_FALSE(heal_done.load(std::memory_order_acquire))
        << "corrupt_block proceeded while a reader held a pin";
    ASSERT_EQ(std::string_view(read.data), std::string_view(before))
        << "pinned view mutated under the reader";
  }
  read.pin.release();  // reader done: the mutator may now proceed
  healer.join();
  EXPECT_TRUE(heal_done.load(std::memory_order_acquire));
  // The corruption really landed: media corruption fails every copy.
  for (const auto n : fs.block(b).replicas) {
    EXPECT_FALSE(fs.replica_healthy(b, n));
  }
}
