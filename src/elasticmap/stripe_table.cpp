#include "elasticmap/stripe_table.hpp"

#include <limits>

namespace datanet::elasticmap {

void StripeTable::Builder::add_line(std::uint64_t offset, std::size_t size,
                                    const workload::SubDatasetId* id) {
  // Cut before this line when the open stripe holds a line already and this
  // one would end past its budget. Every non-empty line is at least two
  // bytes with its '\n' (a last unterminated one aside), so a stripe counts
  // at most kStripeBytes / 2 + 1 lines and the 16-bit counts cannot wrap.
  if (open_.records + open_.skipped > 0 &&
      offset + size > start_ + kStripeBytes) {
    open_.end = static_cast<std::uint32_t>(offset);
    stripes_.push_back(open_);
    open_ = Stripe{};
    start_ = offset;
  }
  if (id != nullptr) {
    open_.bloom |= stripe_bits(*id);
    ++open_.records;
  } else {
    ++open_.skipped;
  }
}

StripeTable StripeTable::Builder::finish(std::uint64_t block_bytes) && {
  StripeTable table;
  if (block_bytes > std::numeric_limits<std::uint32_t>::max()) return table;
  if (block_bytes > start_) {
    open_.end = static_cast<std::uint32_t>(block_bytes);
    stripes_.push_back(open_);
  }
  stripes_.shrink_to_fit();
  table.stripes_ = std::move(stripes_);
  return table;
}

}  // namespace datanet::elasticmap
