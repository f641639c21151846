#include "workload/movie_gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "stats/zipf.hpp"
#include "workload/text_gen.hpp"

namespace datanet::workload {

MovieLogGenerator::MovieLogGenerator(MovieGenOptions options)
    : options_(options) {
  if (options_.num_movies == 0) throw std::invalid_argument("num_movies == 0");
  if (options_.num_records == 0) throw std::invalid_argument("num_records == 0");
  if (options_.horizon_seconds == 0) throw std::invalid_argument("horizon == 0");
  if (options_.min_review_words > options_.max_review_words) {
    throw std::invalid_argument("min_review_words > max_review_words");
  }

  common::Rng rng(options_.seed);
  const stats::ZipfSampler pop(options_.num_movies, options_.popularity_zipf);
  movies_.resize(options_.num_movies);
  for (std::uint64_t m = 0; m < options_.num_movies; ++m) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "movie_%05llu",
                  static_cast<unsigned long long>(m));
    movies_[m].key = buf;
    // Releases spread over the first 90% of the horizon so late releases
    // still accumulate reviews inside the log window.
    movies_[m].release = rng.bounded(options_.horizon_seconds * 9 / 10);
    movies_[m].popularity = pop.probability(m);
  }
}

std::string MovieLogGenerator::movie_key(std::uint64_t rank) const {
  if (rank >= movies_.size()) throw std::out_of_range("movie_key: bad rank");
  return movies_[rank].key;  // rank order == construction order (Zipf ranks)
}

std::vector<Record> MovieLogGenerator::generate() const {
  common::Rng rng(options_.seed ^ 0x9d2c5680ULL);
  const stats::ZipfSampler pop(options_.num_movies, options_.popularity_zipf);
  const TextGenerator text;

  std::vector<Record> records;
  records.reserve(options_.num_records);
  // (timestamp, draw index) per record: sorting these instead of whole
  // records gives the same order as a stable sort by timestamp.
  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  order.reserve(options_.num_records);
  // Each payload is built here, then copied into a string of its exact size.
  std::string payload;
  for (std::uint64_t i = 0; i < options_.num_records; ++i) {
    const std::uint64_t m = pop.sample(rng);
    const MovieInfo& movie = movies_[m];

    std::uint64_t ts;
    if (rng.bernoulli(options_.background_fraction)) {
      // Background chatter: uniform over the post-release window.
      ts = movie.release + rng.bounded(options_.horizon_seconds - movie.release);
    } else {
      // Release-decay burst: Exp(decay) after release, clamped into horizon.
      const double delay = -options_.decay_seconds * std::log(1.0 - rng.uniform());
      ts = movie.release + static_cast<std::uint64_t>(delay);
      if (ts >= options_.horizon_seconds) ts = options_.horizon_seconds - 1;
    }

    const auto rating = rng.range(1, 10);
    const auto words = static_cast<std::uint32_t>(
        rng.range(options_.min_review_words, options_.max_review_words));
    payload.assign("rating=");
    payload += std::to_string(rating);
    payload.push_back(' ');
    text.append_sentence(rng, words, payload);

    order.emplace_back(ts, records.size());
    records.push_back(Record{.timestamp = ts, .key = movie.key, .payload = payload});
  }

  // Chronological storage order; equal timestamps keep draw order so the
  // stream is deterministic. Apply the sorted order in place, one cycle of
  // the permutation at a time (a done slot points at itself).
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (order[i].second == i) continue;
    Record held = std::move(records[i]);
    std::size_t dst = i;
    while (order[dst].second != i) {
      const std::size_t src = order[dst].second;
      records[dst] = std::move(records[src]);
      order[dst].second = dst;
      dst = src;
    }
    records[dst] = std::move(held);
    order[dst].second = dst;
  }
  return records;
}

}  // namespace datanet::workload
