// Unit tests for the common utilities: hashing, RNG, string helpers, byte
// formatting, thread pool, text table.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cctype>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/simd_scan.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace dc = datanet::common;

// ---- hash ----

TEST(Hash, Mix64IsDeterministic) {
  EXPECT_EQ(dc::mix64(42), dc::mix64(42));
  EXPECT_NE(dc::mix64(42), dc::mix64(43));
}

TEST(Hash, Mix64ZeroIsNotZero) { EXPECT_NE(dc::mix64(1), 0u); }

TEST(Hash, BytesDiffersBySeed) {
  EXPECT_NE(dc::hash_bytes("hello", 1), dc::hash_bytes("hello", 2));
}

TEST(Hash, BytesDiffersByContent) {
  EXPECT_NE(dc::hash_bytes("hello"), dc::hash_bytes("hellp"));
  EXPECT_NE(dc::hash_bytes("a"), dc::hash_bytes("aa"));
}

TEST(Hash, EmptyStringStable) {
  EXPECT_EQ(dc::hash_bytes(""), dc::hash_bytes(""));
}

TEST(Hash, CombineNotCommutative) {
  EXPECT_NE(dc::hash_combine(1, 2), dc::hash_combine(2, 1));
}

TEST(Hash, LowCollisionOnSequentialKeys) {
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 100000; ++i) seen.insert(dc::mix64(i));
  EXPECT_EQ(seen.size(), 100000u);
}

TEST(Hash, DoubleHashProbesDistinct) {
  const std::uint64_t h1 = dc::mix64(99), h2 = dc::mix64(100) | 1;
  std::set<std::uint64_t> probes;
  for (std::uint64_t i = 0; i < 16; ++i) {
    probes.insert(dc::double_hash(h1, h2, i) % 4096);
  }
  EXPECT_GT(probes.size(), 12u);  // few wraparound collisions tolerated
}

TEST(Hash, WordHashIsItsBlockSteps) {
  const auto block = [](std::string_view sixteen) {
    return std::pair{dc::detail::load_le64(sixteen.data()),
                     dc::detail::load_le64(sixteen.data() + 8)};
  };
  EXPECT_EQ(dc::word_hash(""), dc::word_hash_finish(dc::word_hash_start(0)));
  // Short words are one zero-padded block.
  const std::string padded("abc\0\0\0\0\0\0\0\0\0\0\0\0\0", 16);
  const auto [lo, hi] = block(padded);
  EXPECT_EQ(dc::word_hash("abc"),
            dc::word_hash_finish(dc::word_hash_block(dc::word_hash_start(3),
                                                     lo, hi)));
  // Longer ones fold one block per 16 bytes, the last one zero-padded.
  const std::string w17 = "abcdefghijklmnopq";
  const auto [lo1, hi1] = block(w17.substr(0, 16));
  const std::string tail("q\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0", 16);
  const auto [lo2, hi2] = block(tail);
  EXPECT_EQ(dc::word_hash(w17),
            dc::word_hash_finish(dc::word_hash_block(
                dc::word_hash_block(dc::word_hash_start(17), lo1, hi1), lo2,
                hi2)));
  // The length takes part: a zero byte is not padding.
  EXPECT_NE(dc::word_hash(std::string_view("a\0", 2)), dc::word_hash("a"));
}

TEST(Hash, WordHashSpreadsIntoTheTopBits) {
  // KeyIndex picks a slot from the top bits: 2000 short words must reach
  // nearly all 256 values of the top 8 (for a uniform hash a value stays
  // empty with probability e^-7.8, about 1 in 2400).
  std::set<std::uint64_t> top;
  std::unordered_set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t h = dc::word_hash(std::to_string(i) + "w");
    top.insert(h >> 56);
    seen.insert(h);
  }
  EXPECT_GE(top.size(), 250u);
  EXPECT_EQ(seen.size(), 2000u);
}

// ---- crc32 ----

namespace {
// The textbook byte-at-a-time, one-table CRC-32 (reflected 0xEDB88320):
// the reference the slicing-by-8 kernel must match.
std::uint32_t crc32_bytewise(std::string_view bytes) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = ~0u;
  for (const unsigned char c : bytes) crc = (crc >> 8) ^ table[(crc ^ c) & 0xffu];
  return ~crc;
}
}  // namespace

TEST(Crc32, SliceBy8MatchesBytewiseReference) {
  static_assert(dc::crc32("123456789") == 0xCBF43926u);
  static_assert(dc::crc32("") == 0u);
  EXPECT_EQ(crc32_bytewise("123456789"), 0xCBF43926u);

  // Every length 0..4096 at every start offset 0..7, so the 8-byte body and
  // the byte-wise tail both see every alignment and remainder.
  dc::Rng rng(2024);
  std::string buf(4096 + 8, '\0');
  for (auto& c : buf) c = static_cast<char>(rng.bounded(256));
  const std::string_view all(buf);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const auto piece = all.substr(offset, len);
      ASSERT_EQ(dc::crc32(piece), crc32_bytewise(piece))
          << "offset " << offset << " length " << len;
    }
  }

  // Chaining: crc32(b, crc32(a)) == crc32(a + b) at every split point.
  const auto whole = all.substr(3, 300);
  const std::uint32_t expected = crc32_bytewise(whole);
  for (std::size_t split = 0; split <= whole.size(); ++split) {
    ASSERT_EQ(dc::crc32(whole.substr(split), dc::crc32(whole.substr(0, split))),
              expected)
        << "split " << split;
  }
}

// ---- rng ----

TEST(Rng, Deterministic) {
  dc::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  dc::Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsStream) {
  dc::Rng r(5);
  const auto first = r();
  r.reseed(5);
  EXPECT_EQ(r(), first);
}

TEST(Rng, UniformInUnitInterval) {
  dc::Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  dc::Rng r(12);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  dc::Rng r(19);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BoundedRespectsBound) {
  dc::Rng r(13);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.bounded(17), 17u);
}

TEST(Rng, BoundedZeroAndOne) {
  dc::Rng r(14);
  EXPECT_EQ(r.bounded(0), 0u);
  EXPECT_EQ(r.bounded(1), 0u);
}

TEST(Rng, BoundedCoversAllResidues) {
  dc::Rng r(15);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.bounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  dc::Rng r(16);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BernoulliExtremes) {
  dc::Rng r(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, ForkIndependent) {
  dc::Rng parent(21);
  auto c1 = parent.fork(1);
  auto c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (c1() == c2());
  EXPECT_LT(same, 3);
}

// ---- string_util ----

TEST(StringUtil, SplitBasic) {
  const auto parts = dc::split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, SplitPreservesEmptyFields) {
  const auto parts = dc::split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, SplitSingleField) {
  const auto parts = dc::split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtil, SplitEmptyString) {
  const auto parts = dc::split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtil, ForEachSplitEarlyStop) {
  int count = 0;
  dc::for_each_split("a,b,c,d", ',', [&](std::string_view) -> bool {
    ++count;
    return count < 2;
  });
  EXPECT_EQ(count, 2);
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(dc::trim("  hi  "), "hi");
  EXPECT_EQ(dc::trim("hi"), "hi");
  EXPECT_EQ(dc::trim("   "), "");
  EXPECT_EQ(dc::trim(""), "");
  EXPECT_EQ(dc::trim("\t x \n"), "x");
}

TEST(StringUtil, ParseU64) {
  EXPECT_EQ(dc::parse_u64("123"), 123u);
  EXPECT_EQ(dc::parse_u64("0"), 0u);
  EXPECT_FALSE(dc::parse_u64("12x"));
  EXPECT_FALSE(dc::parse_u64(""));
  EXPECT_FALSE(dc::parse_u64("-3"));
}

TEST(StringUtil, ParseI64) {
  EXPECT_EQ(dc::parse_i64("-42"), -42);
  EXPECT_EQ(dc::parse_i64("7"), 7);
  EXPECT_FALSE(dc::parse_i64("7.5"));
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(*dc::parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*dc::parse_double("-1e3"), -1000.0);
  EXPECT_FALSE(dc::parse_double("abc"));
}

// ---- word tokenizer (common::scan_words, on every kernel) ----

namespace {

std::vector<dc::ScanKernel> word_kernels() {
  std::vector<dc::ScanKernel> v;
  for (const auto k : {dc::ScanKernel::kScalar, dc::ScanKernel::kAvx2}) {
    if (dc::scan_kernel_available(k)) v.push_back(k);
  }
  return v;
}

// The words' bytes, after checking each carries word_hash of them.
std::vector<std::string> word_strings(const std::vector<dc::Word>& words) {
  std::vector<std::string> out;
  for (const dc::Word& w : words) {
    EXPECT_EQ(w.hash, dc::word_hash(w.view)) << w.view;
    out.emplace_back(w.view);
  }
  return out;
}

std::vector<std::string> tokenize(std::string_view text, dc::ScanKernel kernel) {
  std::vector<dc::Word> words;
  std::string lowered;
  dc::scan_words(text, words, lowered, kernel);
  return word_strings(words);
}

// The tokenizer before it became table-driven: per-char std::isalnum and
// std::tolower in the C locale (nothing in the repo calls setlocale).
std::vector<std::string> reference_tokenize(std::string_view text) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : text) {
    const auto uc = static_cast<unsigned char>(ch);
    if (std::isalnum(uc) || ch == '\'') {
      cur.push_back(static_cast<char>(std::tolower(uc)));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

}  // namespace

TEST(StringUtil, TokenizeWordsLowercases) {
  for (const auto kernel : word_kernels()) {
    EXPECT_EQ(tokenize("Hello World", kernel),
              (std::vector<std::string>{"hello", "world"}))
        << dc::scan_kernel_name(kernel);
  }
}

TEST(StringUtil, TokenizeWordsPunctuation) {
  for (const auto kernel : word_kernels()) {
    const auto words = tokenize("don't stop, now! 42x", kernel);
    ASSERT_EQ(words.size(), 4u) << dc::scan_kernel_name(kernel);
    EXPECT_EQ(words[0], "don't");
    EXPECT_EQ(words[3], "42x");
  }
}

TEST(StringUtil, TokenizeWordsAppends) {
  const std::string_view pre = "pre";
  for (const auto kernel : word_kernels()) {
    // Lowercase text leaves the views on the text; mixed case moves this
    // call's views to `lowered` and must leave the earlier entry alone.
    for (const std::string_view text : {"a b", "A b"}) {
      std::vector<dc::Word> words{{7, pre}};
      std::string lowered;
      dc::scan_words(text, words, lowered, kernel);
      ASSERT_EQ(words.size(), 3u)
          << dc::scan_kernel_name(kernel) << " " << text;
      EXPECT_EQ(words[0].hash, 7u);
      ASSERT_EQ(words[0].view.data(), pre.data()) << text;
      ASSERT_EQ(words[0].view.size(), pre.size()) << text;
      words.erase(words.begin());
      EXPECT_EQ(word_strings(words), (std::vector<std::string>{"a", "b"}));
    }
  }
}

TEST(StringUtil, TokenizeWordsEmpty) {
  for (const auto kernel : word_kernels()) {
    EXPECT_TRUE(tokenize("  ,,, ", kernel).empty())
        << dc::scan_kernel_name(kernel);
    EXPECT_TRUE(tokenize("", kernel).empty()) << dc::scan_kernel_name(kernel);
  }
}

TEST(StringUtil, TokenizeWordsMatchesCLocaleOnEveryByte) {
  for (const auto kernel : word_kernels()) {
    for (int b = 0; b < 256; ++b) {
      const std::string c(1, static_cast<char>(b));
      for (const std::string& text :
           {c, c + c + c, "aB" + c + "9z", c + " Word " + c, "x'" + c}) {
        EXPECT_EQ(tokenize(text, kernel), reference_tokenize(text))
            << "byte " << b << " kernel " << dc::scan_kernel_name(kernel);
      }
    }
  }
}

TEST(StringUtil, TokenizeWordsMatchesCLocaleOnRandomBytes) {
  const std::string_view pre = "pre";
  for (const auto kernel : word_kernels()) {
    dc::Rng rng(1234);
    std::string lowered;  // reused across cases, as the mappers reuse theirs
    for (int i = 0; i < 3000; ++i) {
      // Up to 200 bytes: words cross the 32- and 64-byte stripe edges.
      std::string text(rng.bounded(200), '\0');
      const bool ascii_heavy = rng.bernoulli(0.5);
      for (char& ch : text) {
        ch = ascii_heavy && rng.bernoulli(0.7)
                 ? "aZ09' .,\t-Q"[rng.bounded(11)]
                 : static_cast<char>(rng.bounded(256));
      }
      std::vector<dc::Word> appended{{dc::word_hash(pre), pre}};
      dc::scan_words(text, appended, lowered, kernel);
      ASSERT_FALSE(appended.empty());
      ASSERT_EQ(appended[0].view.data(), pre.data())
          << "case " << i << " kernel " << dc::scan_kernel_name(kernel);
      auto want = reference_tokenize(text);
      want.insert(want.begin(), "pre");
      ASSERT_EQ(word_strings(appended), want)
          << "case " << i << " kernel " << dc::scan_kernel_name(kernel);
    }
  }
}

TEST(StringUtil, TokenizeWordViewsAliasInputUnlessUppercase) {
  const auto inside = [](std::string_view view, std::string_view bytes) {
    return view.data() >= bytes.data() &&
           view.data() + view.size() <= bytes.data() + bytes.size();
  };
  for (const auto kernel : word_kernels()) {
    const std::string name = dc::scan_kernel_name(kernel);
    std::string lowered;

    const std::string lower = "rating=4 the quick fox's 42nd jump, again!";
    std::vector<dc::Word> words;
    dc::scan_words(lower, words, lowered, kernel);
    EXPECT_EQ(word_strings(words), reference_tokenize(lower)) << name;
    for (const auto& w : words) EXPECT_TRUE(inside(w.view, lower)) << w.view;

    const std::string mixed = "The Quick FOX's 42nd Jump, again!";
    words.clear();
    dc::scan_words(mixed, words, lowered, kernel);
    const std::vector<std::string> copied = word_strings(words);
    EXPECT_EQ(copied, reference_tokenize(mixed)) << name;
    for (const auto& w : words) EXPECT_TRUE(inside(w.view, lowered)) << w.view;

    // A second call rewrites `lowered`; what the caller copied stands.
    const std::string longer =
        "Another MIXED-case line, Longer than the first one";
    words.clear();
    dc::scan_words(longer, words, lowered, kernel);
    EXPECT_EQ(word_strings(words), reference_tokenize(longer)) << name;
    EXPECT_EQ(copied, reference_tokenize(mixed)) << name;
  }
}

// ---- units ----

TEST(Units, Literals) {
  using namespace dc::literals;
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
  EXPECT_EQ(1_GiB, 1024u * 1024 * 1024);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(dc::format_bytes(512), "512 B");
  EXPECT_EQ(dc::format_bytes(1024), "1.0 KiB");
  EXPECT_EQ(dc::format_bytes(1536), "1.5 KiB");
  EXPECT_EQ(dc::format_bytes(64ull << 20), "64.0 MiB");
}

// ---- thread pool ----

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  // 0 means one per hardware thread, never zero threads.
  EXPECT_GE(dc::resolve_thread_count(0), 1u);
  std::vector<std::atomic<int>> hits(64);
  dc::parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; },
                   /*grain=*/1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(64);
  dc::parallel_for(8, 64, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIterations) {
  std::atomic<int> calls{0};
  dc::parallel_for(4, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ParallelForFewerIterationsThanThreads) {
  std::vector<std::atomic<int>> hits(3);
  dc::parallel_for(8, 3, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForManyMoreIterationsThanThreads) {
  // Auto grain chunks the range; every index must still run exactly once.
  std::vector<std::atomic<int>> hits(10000);
  dc::parallel_for(4, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForGrainOverride) {
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(100);
    dc::parallel_for(4, hits.size(), [&](std::size_t i) { ++hits[i]; },
                     grain);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ReusableAfterWait) {
  std::atomic<int> count{0};
  dc::parallel_for(2, 10, [&](std::size_t) { ++count; }, /*grain=*/1);
  dc::parallel_for(2, 10, [&](std::size_t) { ++count; }, /*grain=*/1);
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, BodyExceptionReachesCallerAndPoolStaysUsable) {
  EXPECT_THROW(dc::parallel_for(4, 1000, [&](std::size_t i) {
    if (i == 0) throw std::runtime_error("body failed");
  }, /*grain=*/1), std::runtime_error);
  // Thrown only on a worker: the caller naps on each index it claims, so a
  // worker joins long before the caller could finish the range alone.
  const auto caller = std::this_thread::get_id();
  EXPECT_THROW(dc::parallel_for(4, 1000, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) {
      throw std::runtime_error("worker body failed");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }, /*grain=*/1), std::runtime_error);
  std::vector<std::atomic<int>> hits(1000);
  dc::parallel_for(4, hits.size(), [&](std::size_t i) { ++hits[i]; },
                   /*grain=*/1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedAndConcurrentCallsComplete) {
  // A loop nested inside a body finds the pool busy and runs inline.
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 32;
  std::vector<std::atomic<int>> nested(kOuter * kInner);
  dc::parallel_for(4, kOuter, [&](std::size_t i) {
    dc::parallel_for(4, kInner,
                     [&](std::size_t j) { ++nested[i * kInner + j]; },
                     /*grain=*/1);
  }, /*grain=*/1);
  for (const auto& h : nested) EXPECT_EQ(h.load(), 1);

  // Two callers at once: one gets the pool, the other runs alone; both
  // cover their whole range.
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> a(kN);
  std::vector<std::atomic<int>> b(kN);
  for (int round = 0; round < 20; ++round) {
    std::thread ta([&] {
      dc::parallel_for(4, kN, [&](std::size_t i) { ++a[i]; }, /*grain=*/1);
    });
    std::thread tb([&] {
      dc::parallel_for(4, kN, [&](std::size_t i) { ++b[i]; }, /*grain=*/1);
    });
    ta.join();
    tb.join();
  }
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(a[i].load(), 20);
    ASSERT_EQ(b[i].load(), 20);
  }
}

// ---- table ----

TEST(Table, RendersHeadersAndRows) {
  dc::TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  dc::TextTable t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NE(t.to_string().find("only"), std::string::npos);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(dc::fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(dc::fmt_percent(0.5), "50.0%");
  EXPECT_EQ(dc::fmt_percent(0.123, 0), "12%");
}

// ---- json writer ----

#include <cmath>
#include <limits>

#include "common/json.hpp"

TEST(Json, EscapesSpecialCharacters) {
  EXPECT_EQ(dc::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(dc::json_escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(dc::json_escape("plain"), "plain");
}

TEST(Json, BuildsNestedDocument) {
  dc::JsonWriter w;
  w.begin_object();
  w.field("name", "datanet");
  w.field("count", std::uint64_t{3});
  w.field("ratio", 0.5);
  w.field("ok", true);
  w.key("list").begin_array().value(std::uint64_t{1}).value(std::uint64_t{2}).end_array();
  w.key("nested").begin_object().field("x", std::int64_t{-1}).end_object();
  w.key("nothing").null();
  w.end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"datanet","count":3,"ratio":0.5,"ok":true,)"
            R"("list":[1,2],"nested":{"x":-1},"nothing":null})");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  dc::JsonWriter w;
  w.begin_array().value(std::numeric_limits<double>::quiet_NaN()).value(1.5).end_array();
  EXPECT_EQ(w.str(), "[null,1.5]");
}

TEST(Json, RejectsMalformedSequences) {
  {
    dc::JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value("no key"), std::logic_error);
  }
  {
    dc::JsonWriter w;
    w.begin_object();
    w.key("k");
    EXPECT_THROW(w.end_object(), std::logic_error);  // dangling key
  }
  {
    dc::JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key in array
    EXPECT_THROW(w.str(), std::logic_error);     // incomplete
  }
  {
    dc::JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), std::logic_error);
  }
}

TEST(Json, TopLevelScalarCompletes) {
  dc::JsonWriter w;
  w.value("just a string");
  EXPECT_EQ(w.str(), "\"just a string\"");
}
