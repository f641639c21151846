#include "common/simd_scan.hpp"

#include <bit>
#include <charconv>
#include <cstring>
#include <stdexcept>

#if (defined(__x86_64__) || defined(_M_X64)) && !defined(DATANET_FORCE_SCALAR)
#define DATANET_SCAN_X86 1
#include <immintrin.h>
#endif

namespace datanet::common {

namespace {

constexpr std::size_t kNoTab = static_cast<std::size_t>(-1);

// One mask refill covers 64 words x 64 bytes = 4 KiB of data; the walker
// below consumes the masks with pure bit arithmetic.
constexpr std::size_t kWordsPerChunk = 64;

// A timestamp field of 20 or more digits may overflow std::uint64_t (leading
// zeros are legal, so the digit count alone does not decide); fewer always
// fit. Exactly the std::from_chars test workload::decode_record applies.
bool timestamp_fits(const char* p, std::size_t len) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(p, p + len, v);
  return ec == std::errc{} && end == p + len;
}

// ---- portable reference kernels (memchr-driven, the pre-SIMD loops) ----

// The census rule on one non-empty (CR-stripped) line, written plainly:
// digits up to the first tab, then a non-empty key field closed by a second
// tab. The masked walk below must agree with it on every line.
bool is_record_line(std::string_view line) {
  const std::size_t t1 = line.find('\t');
  if (t1 == std::string_view::npos || t1 == 0) return false;
  if (!timestamp_fits(line.data(), t1)) return false;
  return t1 + 1 < line.size() && line[t1 + 1] != '\t' &&
         line.find('\t', t1 + 2) != std::string_view::npos;
}

LineCensus scan_key_lines_scalar(std::string_view data, std::string_view key,
                                 void* ctx, LineSink sink) {
  LineCensus census;
  std::size_t start = 0;
  while (start < data.size()) {
    std::size_t end = data.find('\n', start);
    if (end == std::string_view::npos) end = data.size();
    std::string_view line = data.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) {
      if (is_record_line(line)) {
        ++census.records;
      } else {
        ++census.skipped;
      }
    }
    const std::size_t tab = line.find('\t');
    if (tab != std::string_view::npos) {
      const std::string_view rest = line.substr(tab + 1);
      if (rest.size() > key.size() && rest[key.size()] == '\t' &&
          rest.compare(0, key.size(), key) == 0) {
        sink(ctx, line);
      }
    }
    start = end + 1;
  }
  return census;
}

void scan_lines_scalar(std::string_view data, void* ctx, LineSink sink) {
  std::size_t start = 0;
  while (start < data.size()) {
    std::size_t end = data.find('\n', start);
    if (end == std::string_view::npos) end = data.size();
    std::string_view line = data.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) sink(ctx, line);
    start = end + 1;
  }
}

// ---- masked kernel (x86-64 with AVX2) ----

#if defined(DATANET_SCAN_X86)

// '\n' and '\t' occurrence bitmasks of one 64-byte word (bit i = byte i).
struct WordMasks {
  std::uint64_t nl;
  std::uint64_t tab;
};

inline std::uint64_t lane_bits(__m128i cmp) {
  return static_cast<std::uint32_t>(_mm_movemask_epi8(cmp));
}

__attribute__((target("avx2"))) inline std::uint64_t lane_bits(__m256i lo,
                                                               __m256i hi) {
  return static_cast<std::uint32_t>(_mm256_movemask_epi8(lo)) |
         (static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(_mm256_movemask_epi8(hi)))
          << 32);
}

// Fill out[w] for `words` full 64-byte words starting at p.
__attribute__((target("avx2"))) void fill_masks_avx2(const char* p,
                                                     std::size_t words,
                                                     WordMasks* out) {
  const __m256i vnl = _mm256_set1_epi8('\n');
  const __m256i vtab = _mm256_set1_epi8('\t');
  for (std::size_t w = 0; w < words; ++w) {
    const __m256i lo = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(p + 64 * w));
    const __m256i hi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(p + 64 * w + 32));
    out[w] = {lane_bits(_mm256_cmpeq_epi8(lo, vnl), _mm256_cmpeq_epi8(hi, vnl)),
              lane_bits(_mm256_cmpeq_epi8(lo, vtab),
                        _mm256_cmpeq_epi8(hi, vtab))};
  }
}

// Scalar mask build for the final partial word (< 64 bytes).
void fill_tail_word(const char* p, std::size_t len, WordMasks* out) {
  std::uint64_t mn = 0, mt = 0;
  for (std::size_t i = 0; i < len; ++i) {
    mn |= static_cast<std::uint64_t>(p[i] == '\n') << i;
    mt |= static_cast<std::uint64_t>(p[i] == '\t') << i;
  }
  *out = {mn, mt};
}

// Bits 0..k-1 set; k <= 63.
inline std::uint64_t below(std::size_t k) {
  return (std::uint64_t{1} << k) - 1;
}

// Clear bits 0..k (inclusive) of m; k <= 63.
inline std::uint64_t clear_through(std::uint64_t m, std::size_t k) {
  return k >= 63 ? 0 : m & ~((std::uint64_t{1} << (k + 1)) - 1);
}

// CRLF contract shared by every kernel: one trailing '\r' per line is not
// part of the line. `end` is the newline offset (or n at end-of-data).
inline std::size_t strip_cr(const char* base, std::size_t cur,
                            std::size_t end) {
  return (end > cur && base[end - 1] == '\r') ? end - 1 : end;
}

// The census rule of is_record_line for the non-empty line [cur, end) whose
// first tab the masks put at `tab` (kNoTab when none). Two 16-byte compares
// settle the common shape — up to 15 timestamp digits, a key field of up to
// 15 bytes — without walking the line: one finds the non-digits before the
// first tab, the other the tabs after it. Anything else takes the scalar
// rule. Digit masks built per 64-byte word in the fills cost more: a record
// line spans ~2.4 words and only its first bytes need one.
inline bool is_record_at(const char* base, std::size_t n, std::size_t cur,
                         std::size_t end, std::size_t tab) {
  if (tab == kNoTab) return false;
  const std::size_t digits = tab - cur;
  if (digits - 1 < 15 && tab + 17 <= n) {
    const __m128i head =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + cur));
    const __m128i d = _mm_sub_epi8(head, _mm_set1_epi8('0'));
    const std::uint64_t is_digit =
        lane_bits(_mm_cmpeq_epi8(_mm_min_epu8(d, _mm_set1_epi8(9)), d));
    if ((~is_digit & below(digits)) != 0) return false;
    const __m128i field =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + tab + 1));
    std::uint64_t tabs = lane_bits(_mm_cmpeq_epi8(field, _mm_set1_epi8('\t')));
    const std::size_t room = end - tab - 1;  // line bytes after the tab
    if (room < 16) tabs &= below(room);
    if (tabs != 0) return (tabs & 1) == 0;  // non-empty key, then a tab
    if (room <= 16) return false;           // the line ends before a tab
  }
  return is_record_line(std::string_view(base + cur, end - cur));
}

inline void count_line(LineCensus& census, const char* base, std::size_t n,
                       std::size_t cur, std::size_t end, std::size_t tab) {
  if (end == cur) return;  // empty lines never reach the decoder
  ++(is_record_at(base, n, cur, end, tab) ? census.records : census.skipped);
}

// The shared candidate test, byte-identical to the scalar reference: the
// line's key field (first tab exclusive to second tab exclusive) == key.
// `tab` is the absolute offset of the line's first tab, kNoTab when none.
inline void emit_if_candidate(const char* base, std::size_t cur,
                              std::size_t end, std::size_t tab,
                              std::string_view key, void* ctx, LineSink sink) {
  if (tab == kNoTab) return;
  const std::size_t rest = tab + 1;
  const std::size_t rest_len = end - rest;
  if (rest_len <= key.size()) return;
  if (base[rest + key.size()] != '\t') return;
  // Keys of one dataset tend to share a length and a prefix
  // ("movie_00042"), so their last 8 bytes reject a neighbour cheaply.
  if (key.size() >= 8) {
    std::uint64_t line_tail, key_tail;
    std::memcpy(&line_tail, base + rest + key.size() - 8, 8);
    std::memcpy(&key_tail, key.data() + key.size() - 8, 8);
    if (line_tail != key_tail) return;
  }
  if (std::memcmp(base + rest, key.data(), key.size()) != 0) return;
  sink(ctx, std::string_view(base + cur, end - cur));
}

// Mask-driven line walk. Invariant at word entry: every newline in earlier
// words has been consumed, so the current line start `cur` is <= the word
// base and leftover tabs of the open line are already folded into `tab`.
template <bool kWantKey>
LineCensus walk_masked(std::string_view data, std::string_view key, void* ctx,
                       LineSink sink) {
  const char* base = data.data();
  const std::size_t n = data.size();
  WordMasks masks[kWordsPerChunk];

  LineCensus census;
  std::size_t cur = 0;
  std::size_t tab = kNoTab;
  std::size_t chunk = 0;
  while (chunk < n) {
    std::size_t words = std::min((n - chunk) / 64, kWordsPerChunk);
    if (words > 0) fill_masks_avx2(base + chunk, words, masks);
    std::size_t covered = words * 64;
    if (words < kWordsPerChunk && chunk + covered < n) {
      fill_tail_word(base + chunk + covered, n - chunk - covered,
                     &masks[words]);
      covered = n - chunk;
      ++words;
    }
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t wbase = chunk + w * 64;
      std::uint64_t nl = masks[w].nl;
      std::uint64_t tb = masks[w].tab;
      while (nl) {
        const std::size_t bit = static_cast<std::size_t>(std::countr_zero(nl));
        const std::size_t end = wbase + bit;
        const std::size_t stripped = strip_cr(base, cur, end);
        if (kWantKey) {
          const std::uint64_t line_tabs = tb & below(bit);
          if (tab == kNoTab && line_tabs) {
            tab = wbase + static_cast<std::size_t>(std::countr_zero(line_tabs));
          }
          count_line(census, base, n, cur, stripped, tab);
          emit_if_candidate(base, cur, stripped, tab, key, ctx, sink);
          tb = clear_through(tb, bit);
          tab = kNoTab;
        } else if (stripped > cur) {
          sink(ctx, std::string_view(base + cur, stripped - cur));
        }
        nl &= nl - 1;
        cur = end + 1;
      }
      if (kWantKey && tab == kNoTab && tb != 0) {
        tab = wbase + static_cast<std::size_t>(std::countr_zero(tb));
      }
    }
    chunk += covered;
  }
  if (cur < n) {
    const std::size_t stripped = strip_cr(base, cur, n);
    if (kWantKey) {
      count_line(census, base, n, cur, stripped, tab);
      emit_if_candidate(base, cur, stripped, tab, key, ctx, sink);
    } else if (stripped > cur) {
      sink(ctx, std::string_view(base + cur, stripped - cur));
    }
  }
  return census;
}

#endif  // DATANET_SCAN_X86

ScanKernel detect_kernel() noexcept {
#if defined(DATANET_SCAN_X86)
  return __builtin_cpu_supports("avx2") ? ScanKernel::kAvx2
                                         : ScanKernel::kScalar;
#else
  return ScanKernel::kScalar;
#endif
}

void require_available(ScanKernel kernel) {
  if (!scan_kernel_available(kernel)) {
    throw std::invalid_argument(std::string("scan kernel unavailable here: ") +
                                scan_kernel_name(kernel));
  }
}

}  // namespace

ScanKernel active_scan_kernel() noexcept {
  static const ScanKernel kernel = detect_kernel();
  return kernel;
}

bool scan_kernel_available(ScanKernel kernel) noexcept {
  switch (kernel) {
    case ScanKernel::kScalar:
      return true;
    case ScanKernel::kAvx2:
#if defined(DATANET_SCAN_X86)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

const char* scan_kernel_name(ScanKernel kernel) noexcept {
  switch (kernel) {
    case ScanKernel::kScalar:
      return "scalar";
    case ScanKernel::kAvx2:
      return "avx2";
  }
  return "?";
}

LineCensus scan_key_lines(std::string_view data, std::string_view key,
                          void* ctx, LineSink sink) {
  return scan_key_lines(data, key, ctx, sink, active_scan_kernel());
}

LineCensus scan_key_lines(std::string_view data, std::string_view key,
                          void* ctx, LineSink sink, ScanKernel kernel) {
  require_available(kernel);
#if defined(DATANET_SCAN_X86)
  if (kernel != ScanKernel::kScalar) {
    return walk_masked<true>(data, key, ctx, sink);
  }
#endif
  return scan_key_lines_scalar(data, key, ctx, sink);
}

void scan_lines(std::string_view data, void* ctx, LineSink sink) {
  scan_lines(data, ctx, sink, active_scan_kernel());
}

void scan_lines(std::string_view data, void* ctx, LineSink sink,
                ScanKernel kernel) {
  require_available(kernel);
#if defined(DATANET_SCAN_X86)
  if (kernel != ScanKernel::kScalar) {
    (void)walk_masked<false>(data, {}, ctx, sink);
    return;
  }
#endif
  scan_lines_scalar(data, ctx, sink);
}

}  // namespace datanet::common
