#pragma once
// Allocation-light string helpers for the record codecs.

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace datanet::common {

// Split `s` on `sep`; empty fields are preserved ("a,,b" -> {"a","","b"}).
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

// Invoke `fn(field)` for each `sep`-separated field without materializing a
// vector. `fn` may return void, or bool where false stops iteration early.
template <typename Fn>
void for_each_split(std::string_view s, char sep, Fn&& fn) {
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    std::string_view field = (pos == std::string_view::npos)
                                 ? s.substr(start)
                                 : s.substr(start, pos - start);
    if constexpr (std::is_same_v<decltype(fn(field)), bool>) {
      if (!fn(field)) return;
    } else {
      fn(field);
    }
    if (pos == std::string_view::npos) return;
    start = pos + 1;
  }
}

[[nodiscard]] std::string_view trim(std::string_view s);

// Locale-independent numeric parses; nullopt on any trailing garbage.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view s);
[[nodiscard]] std::optional<std::int64_t> parse_i64(std::string_view s);
[[nodiscard]] std::optional<double> parse_double(std::string_view s);

}  // namespace datanet::common
