#pragma once
// Allocation-light string helpers for the record codecs and tokenizers.

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

// Tokenize into lowercase words (runs of [A-Za-z0-9'], lowercased as the C
// locale does); used by WordCount and the word histogram. Appends one view
// per word to `out`. Text with no uppercase byte is tokenized in place and
// the views alias `text`; otherwise `lowered` is overwritten with a
// lowercased copy of `text` and the views alias `lowered`, so they stay
// valid until `lowered` next changes (the next call that needs it).
void tokenize_words(std::string_view text, std::vector<std::string_view>& out,
                    std::string& lowered);

}  // namespace datanet::common
