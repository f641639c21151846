#pragma once
// Per-block stripe table: the block cut into ≈kStripeBytes stripes at line
// starts, each with its record and skipped-line counts and one 64-bit Bloom
// word of the sub-datasets it holds. The materialize filter walks only the
// stripes whose word admits the key and takes the census of the others from
// their stored counts (HAIL-style skipping inside a candidate block; §V-B-1
// skips whole blocks). Built in the ElasticMap's per-block scan, immutable
// afterwards, and shared by every scheduling graph that names the block.
//
// Invariants (tests/elasticmap_test.cpp, selection_runtime_test.cpp):
//   * no false negative: every record's id sets its stripe_bits in its
//     stripe's word, so a skipped stripe holds no record of the key;
//   * no line crosses a stripe end, so the census of the scanned runs plus
//     the stored counts of the skipped stripes equals the full scan's;
//   * the table is not ElasticMap metadata: it stays out of BlockMeta and
//     memory_bytes() (Eq. 5, Table II), and the simulated clock still
//     charges whole blocks.

#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/hash.hpp"
#include "common/simd_scan.hpp"
#include "workload/record.hpp"

namespace datanet::elasticmap {

// A stripe ends at the first line start from which the next line would
// carry it past this many bytes (a longer line is a stripe of its own).
inline constexpr std::uint32_t kStripeBytes = 1024;

struct Stripe {
  std::uint64_t bloom = 0;     // OR of stripe_bits over the stripe's records
  std::uint32_t end = 0;       // one past its last byte: a line start or EOF
  std::uint16_t records = 0;   // lines workload::decode_record accepts
  std::uint16_t skipped = 0;   // non-empty lines it rejects
};

// The three Bloom-word bits of a sub-dataset. The id is remixed so the bits
// are independent of the block Bloom filter's probes of the same id.
[[nodiscard]] constexpr std::uint64_t stripe_bits(
    workload::SubDatasetId id) noexcept {
  const std::uint64_t h = common::mix64(id);
  return (std::uint64_t{1} << (h & 63)) | (std::uint64_t{1} << ((h >> 6) & 63)) |
         (std::uint64_t{1} << ((h >> 12) & 63));
}

class StripeTable {
 public:
  // The table of one block's bytes, built in one line walk that also hands
  // each record's (id, encoded size) to `on_record` — the ElasticMap's
  // per-block scan feeds its DominantSeparator from the same walk. Blocks of
  // 4 GiB or more are not striped: the table is empty and covers nothing.
  template <typename OnRecord>
  [[nodiscard]] static StripeTable scan(std::string_view block,
                                        OnRecord&& on_record);

  [[nodiscard]] std::span<const Stripe> stripes() const noexcept {
    return stripes_;
  }
  // The block size the table was built over (its last stripe's end).
  [[nodiscard]] std::uint64_t covered_bytes() const noexcept {
    return stripes_.empty() ? 0 : stripes_.back().end;
  }
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return stripes_.size() * sizeof(Stripe);
  }

 private:
  class Builder {
   public:
    // The next non-empty line (CRLF already stripped), `offset` bytes into
    // the block; `id` is its record's sub-dataset, null when
    // workload::decode_record rejected it.
    void add_line(std::uint64_t offset, std::size_t size,
                  const workload::SubDatasetId* id);
    [[nodiscard]] StripeTable finish(std::uint64_t block_bytes) &&;

   private:
    std::vector<Stripe> stripes_;
    Stripe open_;
    std::uint64_t start_ = 0;  // offset of the open stripe
  };

  std::vector<Stripe> stripes_;
};

template <typename OnRecord>
StripeTable StripeTable::scan(std::string_view block, OnRecord&& on_record) {
  struct Ctx {
    std::remove_reference_t<OnRecord>* on_record;
    Builder builder;
    const char* base;
  } ctx{&on_record, {}, block.data()};
  common::scan_lines(block, &ctx, [](void* p, std::string_view line) {
    auto& c = *static_cast<Ctx*>(p);
    const auto offset = static_cast<std::uint64_t>(line.data() - c.base);
    if (const auto rv = workload::decode_record(line)) {
      const workload::SubDatasetId id = rv->id();
      (*c.on_record)(id, rv->encoded_size());
      c.builder.add_line(offset, line.size(), &id);
    } else {
      c.builder.add_line(offset, line.size(), nullptr);
    }
  });
  return std::move(ctx.builder).finish(block.size());
}

}  // namespace datanet::elasticmap
