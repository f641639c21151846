#pragma once
// Vectorized record-line scanning for the selection hot loop. The scanner
// walks newline-separated data in 64-byte stripes, building '\n' and '\t'
// bitmasks with AVX2 compares and iterating set bits — so per-line work is
// bit arithmetic, not two memchr calls per ~80-byte line. A portable scalar
// kernel is the reference implementation and the fallback on CPUs without
// AVX2: both kernels must produce byte-identical
// callback sequences and censuses on any input (tests/hotpath_test.cpp
// fuzzes every alignment offset and degenerate shape).
//
// The kernel is chosen once per process (runtime CPU dispatch). Building
// with -DDATANET_FORCE_SCALAR=ON pins the scalar kernel so CI can cover the
// portable path on any machine.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace datanet::common {

enum class ScanKernel : std::uint8_t { kScalar = 0, kAvx2 = 2 };

// The kernel the dispatcher selected for this process (cached after the
// first call). kScalar off x86-64, on CPUs without AVX2, and under
// DATANET_FORCE_SCALAR.
[[nodiscard]] ScanKernel active_scan_kernel() noexcept;

// True when `kernel` can run on this build + CPU (kScalar always can).
[[nodiscard]] bool scan_kernel_available(ScanKernel kernel) noexcept;

[[nodiscard]] const char* scan_kernel_name(ScanKernel kernel) noexcept;

// Plain-function sinks keep the kernels out of the header; candidate lines
// are rare (sub-dataset selectivity), so the indirect call is off the
// per-byte path.
using LineSink = void (*)(void* ctx, std::string_view line);

// What a key scan counted on its way through the data: every non-empty line
// (after the CRLF strip below) is either a record workload::decode_record
// would accept or one it would reject — the same two counts
// workload::for_each_record reports, so the selection report can be priced
// without decoding the data a second time.
struct LineCensus {
  std::uint64_t records = 0;  // lines decode_record accepts
  std::uint64_t skipped = 0;  // non-empty lines it rejects
};

// Invoke `sink` for every line of `data` whose key field — the bytes between
// the first and second '\t' — equals `key` exactly, and return the census of
// every line walked. Lines are split on '\n' (the final line needs no
// trailing newline); a line carrying a CRLF terminator has exactly one
// trailing '\r' stripped before matching, counting and emission, so
// Windows-style records never leak '\r' into their last field.
// Lines without two tabs around a key-sized field never match.
// Byte-compatible with the scalar loop
//   if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
//   tab = line.find('\t'); rest = line.substr(tab + 1);
//   rest.size() > key.size() && rest[key.size()] == '\t' &&
//   rest.compare(0, key.size(), key) == 0
// for every input, including empty lines and embedded partial prefixes.
// A line is a record iff it is `digits \t key \t payload` with a non-empty
// key and a timestamp that fits std::uint64_t. The vector kernels take the
// first tab from the '\n'/'\t' masks they build anyway and check the
// digits before it and the key field after it with one 16-byte compare each.
LineCensus scan_key_lines(std::string_view data, std::string_view key,
                          void* ctx, LineSink sink);

// Same, on an explicit kernel (equivalence tests and the kernel bench).
// Throws std::invalid_argument when the kernel is unavailable here.
LineCensus scan_key_lines(std::string_view data, std::string_view key,
                          void* ctx, LineSink sink, ScanKernel kernel);

// Invoke `sink` for every non-empty line of `data` (split on '\n', final
// line included without one). One trailing '\r' per line is stripped before
// the empty test, so "\r\n" blank lines are skipped like "\n" ones. The
// vectorized sibling of the scalar find('\n') loop; used by the decode-all
// reference filter.
void scan_lines(std::string_view data, void* ctx, LineSink sink);
void scan_lines(std::string_view data, void* ctx, LineSink sink,
                ScanKernel kernel);

}  // namespace datanet::common
