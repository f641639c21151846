#pragma once
// Synthetic natural-ish text for review payloads: words drawn from a fixed
// vocabulary with Zipfian frequencies, so WordCount / histogram / TopK jobs
// process realistic token distributions.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "stats/zipf.hpp"

namespace datanet::workload {

class TextGenerator {
 public:
  // `vocabulary_size` distinct words, frequency rank ~ Zipf(zipf_exponent).
  explicit TextGenerator(std::uint32_t vocabulary_size = 2000,
                         double zipf_exponent = 1.05);

  // A sentence of exactly `num_words` space-separated words.
  [[nodiscard]] std::string sentence(common::Rng& rng, std::uint32_t num_words) const;

  // The same sentence, appended to `out` (no separator before it), so a
  // caller can build a whole record in one buffer.
  void append_sentence(common::Rng& rng, std::uint32_t num_words,
                       std::string& out) const;

  // A sentence whose length is uniform in [min_words, max_words].
  [[nodiscard]] std::string sentence(common::Rng& rng, std::uint32_t min_words,
                                     std::uint32_t max_words) const;

  [[nodiscard]] const std::vector<std::string>& vocabulary() const noexcept {
    return vocab_;
  }

 private:
  std::vector<std::string> vocab_;
  stats::ZipfSampler zipf_;
};

}  // namespace datanet::workload
