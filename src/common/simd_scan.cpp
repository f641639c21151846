#include "common/simd_scan.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstring>
#include <stdexcept>

#include "common/hash.hpp"

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

// Byte -> its lowercase form if it is a word character ([A-Za-z0-9'], the
// C locale's isalnum plus the apostrophe), else 0.
constexpr std::array<char, 256> kWordChar = [] {
  std::array<char, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[c] = static_cast<char>(c);
  for (int c = 'a'; c <= 'z'; ++c) t[c] = static_cast<char>(c);
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = static_cast<char>(c - 'A' + 'a');
  t['\''] = '\'';
  return t;
}();

char word_char(char ch) { return kWordChar[static_cast<unsigned char>(ch)]; }

void scan_words_scalar(std::string_view text, std::vector<Word>& out,
                       std::string& lowered) {
  // No early exit: the whole-text reduction vectorizes.
  bool upper = false;
  for (const char ch : text) upper |= static_cast<unsigned char>(ch - 'A') < 26;
  if (upper) {
    // Non-word bytes map to 0 in the copy, so it splits where `text` does.
    lowered.resize(text.size());
    std::ranges::transform(text, lowered.begin(), word_char);
    text = lowered;
  }
  const std::size_t n = text.size();
  std::size_t i = 0;
  while (i < n) {
    while (i < n && word_char(text[i]) == 0) ++i;
    const std::size_t start = i;
    while (i < n && word_char(text[i]) != 0) ++i;
    if (i == start) break;
    const std::string_view word = text.substr(start, i - start);
    out.push_back({word_hash(word), word});
  }
}

// ---- masked kernels (x86-64 with AVX2) ----

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

// 0xff where a byte of x is in [lo, lo + k): adding 128 - lo lands exactly
// those bytes below -128 + k as signed bytes.
__attribute__((target("avx2"))) inline __m256i in_range(__m256i x, char lo,
                                                        char k) {
  return _mm256_cmpgt_epi8(
      _mm256_set1_epi8(static_cast<char>(-128 + k)),
      _mm256_add_epi8(x, _mm256_set1_epi8(static_cast<char>(128 - lo))));
}

// Lowers the uppercase bytes of v in place and returns its word-byte mask
// (bit i: byte i is in [A-Za-z0-9']) and its uppercase mask.
__attribute__((target("avx2"))) inline void classify_words(
    __m256i& v, std::uint64_t& word, std::uint64_t& upper) {
  const __m256i up = in_range(v, 'A', 26);
  v = _mm256_or_si256(v, _mm256_and_si256(up, _mm256_set1_epi8(0x20)));
  const __m256i is_word = _mm256_or_si256(
      _mm256_or_si256(in_range(v, 'a', 26), in_range(v, '0', 10)),
      _mm256_cmpeq_epi8(v, _mm256_set1_epi8('\'')));
  word = static_cast<std::uint32_t>(_mm256_movemask_epi8(is_word));
  upper = static_cast<std::uint32_t>(_mm256_movemask_epi8(up));
}

// Append the word [s, e) of the text: hashed from the lowered bytes at
// lowered + s, viewed at text + s. A word of up to 16 bytes is one masked
// 16-byte load; `lowered` holds 16 readable bytes past every word start.
__attribute__((target("avx2"))) inline void emit_word(
    const char* lowered, const char* text, std::size_t s, std::size_t e,
    std::vector<Word>& out) {
  const std::size_t len = e - s;
  std::uint64_t h;
  if (len <= 16) [[likely]] {
    const __m128i iota =
        _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(lowered + s));
    v = _mm_and_si128(
        v, _mm_cmpgt_epi8(_mm_set1_epi8(static_cast<char>(len)), iota));
    h = word_hash_finish(word_hash_block(
        word_hash_start(len), static_cast<std::uint64_t>(_mm_cvtsi128_si64(v)),
        static_cast<std::uint64_t>(_mm_extract_epi64(v, 1))));
  } else {
    h = word_hash(std::string_view(lowered + s, len));
  }
  out.push_back({h, std::string_view(text + s, len)});
}

// One pass per 64-byte stripe: load, lower into `lowered`, build the word
// mask, and walk the words that start or end in the stripe with tzcnt.
// Starts are word bytes after a non-word byte; ends (exclusive) are
// non-word bytes after a word byte, so within a stripe they alternate,
// after at most one end that closes a word opened in an earlier stripe.
__attribute__((target("avx2"))) void scan_words_avx2(std::string_view text,
                                                     std::vector<Word>& out,
                                                     std::string& lowered) {
  const std::size_t n = text.size();
  // Whole stripes, then 16 bytes for the last word's hash load.
  const std::size_t need = (n + 63) / 64 * 64 + 16;
  if (lowered.size() < need) lowered.resize(need);
  char* buf = lowered.data();
  const char* src = text.data();
  const std::size_t first = out.size();
  std::uint64_t any_upper = 0;
  std::uint64_t carry = 0;  // 1 when a word runs into the stripe
  std::size_t open = 0;     // start of that word
  for (std::size_t base = 0; base < n; base += 64) {
    // The last stripe of a text of 64 bytes or more is the text's last 64
    // bytes, its masks shifted down to start at `base` (the lowered bytes
    // it stores again before `base` are the ones already there); a shorter
    // text is copied into the buffer first. No load leaves the text.
    const std::size_t left = n - base;
    std::size_t back = 0;  // bytes the stripe starts before `base`
    const char* in = src + base;
    if (left < 64) {
      if (n >= 64) {
        back = 64 - left;
        in -= back;
      } else {
        std::memcpy(buf, src, n);
        in = buf;
      }
    }
    __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in));
    __m256i hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + 32));
    std::uint64_t word_lo, word_hi, upper_lo, upper_hi;
    classify_words(lo, word_lo, upper_lo);
    classify_words(hi, word_hi, upper_hi);
    char* dst = buf + base - back;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 32), hi);
    std::uint64_t word = (word_lo | word_hi << 32) >> back;
    std::uint64_t upper = (upper_lo | upper_hi << 32) >> back;
    if (n < 64) {
      word &= below(left);
      upper &= below(left);
    }
    any_upper |= upper;
    const std::uint64_t after_word = word << 1 | carry;
    std::uint64_t starts = word & ~after_word;
    std::uint64_t ends = ~word & after_word;
    const bool was_open = carry != 0;
    carry = word >> 63;
    if (was_open) {
      if (ends == 0) continue;  // the open word spans the whole stripe
      emit_word(buf, src, open, base + std::countr_zero(ends), out);
      ends &= ends - 1;
    }
    while (starts != 0) {
      const std::size_t s = base + std::countr_zero(starts);
      starts &= starts - 1;
      if (ends == 0) {  // runs into the next stripe
        open = s;
        break;
      }
      emit_word(buf, src, s, base + std::countr_zero(ends), out);
      ends &= ends - 1;
    }
  }
  if (carry != 0) emit_word(buf, src, open, n, out);
  if (any_upper != 0) {  // the words are the lowered copy's
    for (std::size_t i = first; i < out.size(); ++i) {
      const std::string_view v = out[i].view;
      out[i].view = std::string_view(buf + (v.data() - src), v.size());
    }
  }
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

void scan_words(std::string_view text, std::vector<Word>& out,
                std::string& lowered) {
  scan_words(text, out, lowered, active_scan_kernel());
}

void scan_words(std::string_view text, std::vector<Word>& out,
                std::string& lowered, ScanKernel kernel) {
  require_available(kernel);
#if defined(DATANET_SCAN_X86)
  if (kernel != ScanKernel::kScalar) {
    scan_words_avx2(text, out, lowered);
    return;
  }
#endif
  scan_words_scalar(text, out, lowered);
}

}  // namespace datanet::common
