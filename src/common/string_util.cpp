#include "common/string_util.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace datanet::common {

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  for_each_split(s, sep, [&](std::string_view f) { out.push_back(f); });
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<std::int64_t> parse_i64(std::string_view s) {
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<double> parse_double(std::string_view s) {
  double v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

namespace {

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

[[nodiscard]] char word_char(char ch) {
  return kWordChar[static_cast<unsigned char>(ch)];
}

}  // namespace

void tokenize_words(std::string_view text, std::vector<std::string_view>& out,
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
    out.push_back(text.substr(start, i - start));
  }
}

}  // namespace datanet::common
