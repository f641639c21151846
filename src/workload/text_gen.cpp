#include "workload/text_gen.hpp"

#include <stdexcept>

namespace datanet::workload {

namespace {
// Deterministic pronounceable word from an index: alternating consonant/vowel
// syllables, length grows slowly with index so common words are short (as in
// natural language).
std::string make_word(std::uint32_t index) {
  static constexpr char kCons[] = "bcdfghklmnprstvw";
  static constexpr char kVowel[] = "aeiou";
  std::string w;
  std::uint64_t x = datanet::common::mix64(index + 1);
  const std::uint32_t syllables = 1 + index / 400 + static_cast<std::uint32_t>(x % 2);
  for (std::uint32_t s = 0; s < syllables + 1; ++s) {
    w.push_back(kCons[x % 16]);
    x /= 16;
    w.push_back(kVowel[x % 5]);
    x /= 5;
    if (x < 16) x = datanet::common::mix64(x ^ (index * 2654435761u));
  }
  return w;
}
}  // namespace

TextGenerator::TextGenerator(std::uint32_t vocabulary_size, double zipf_exponent)
    : zipf_(vocabulary_size, zipf_exponent) {
  if (vocabulary_size == 0) throw std::invalid_argument("vocabulary_size == 0");
  vocab_.reserve(vocabulary_size);
  for (std::uint32_t i = 0; i < vocabulary_size; ++i) vocab_.push_back(make_word(i));
}

std::string TextGenerator::sentence(common::Rng& rng, std::uint32_t num_words) const {
  std::string out;
  out.reserve(num_words * 7);
  append_sentence(rng, num_words, out);
  return out;
}

void TextGenerator::append_sentence(common::Rng& rng, std::uint32_t num_words,
                                    std::string& out) const {
  for (std::uint32_t i = 0; i < num_words; ++i) {
    if (i) out.push_back(' ');
    out += vocab_[zipf_.sample(rng)];
  }
}

std::string TextGenerator::sentence(common::Rng& rng, std::uint32_t min_words,
                                    std::uint32_t max_words) const {
  if (min_words > max_words) throw std::invalid_argument("min_words > max_words");
  const auto n = static_cast<std::uint32_t>(rng.range(min_words, max_words));
  return sentence(rng, n);
}

}  // namespace datanet::workload
