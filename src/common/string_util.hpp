#pragma once
// Allocation-light string helpers for the record codecs.

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace datanet::common {

// Locale-independent numeric parses; nullopt on any trailing garbage.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view s);
[[nodiscard]] std::optional<double> parse_double(std::string_view s);

}  // namespace datanet::common
