#include "apps/topk_search.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/string_util.hpp"

namespace datanet::apps {

namespace {

using Profile = std::unordered_map<std::uint32_t, double>;

Profile bigram_profile(std::string_view s) {
  Profile p;
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    const std::uint32_t gram = (static_cast<unsigned char>(s[i]) << 8) |
                               static_cast<unsigned char>(s[i + 1]);
    p[gram] += 1.0;
  }
  return p;
}

double norm(const Profile& p) {
  double s = 0.0;
  for (const auto& [_, v] : p) s += v * v;
  return std::sqrt(s);
}

struct Scored {
  double score;
  std::string payload;
  // Min-heap ordering: the worst of the kept K sits on top. Deterministic
  // tie-break on payload keeps parallel runs stable.
  bool operator<(const Scored& other) const {
    if (score != other.score) return score > other.score;
    return payload < other.payload;
  }
};

class TopKMapper final : public mapred::Mapper {
 public:
  TopKMapper(std::shared_ptr<const Profile> query, double query_norm,
             std::uint32_t k)
      : query_(std::move(query)), query_norm_(query_norm), k_(k) {}

  void map(const workload::RecordView& record, mapred::Emitter& out) override {
    (void)out;
    const Profile p = bigram_profile(record.payload);
    const double n = norm(p);
    if (n == 0.0 || query_norm_ == 0.0) return;
    // Iterate the smaller profile for the dot product.
    const Profile& small = p.size() <= query_->size() ? p : *query_;
    const Profile& large = p.size() <= query_->size() ? *query_ : p;
    double dot = 0.0;
    for (const auto& [gram, v] : small) {
      const auto it = large.find(gram);
      if (it != large.end()) dot += v * it->second;
    }
    const double score = dot / (n * query_norm_);
    heap_.push(Scored{score, std::string(record.payload)});
    if (heap_.size() > k_) heap_.pop();
  }

  void finish(mapred::Emitter& out) override {
    while (!heap_.empty()) {
      char value[32];
      std::snprintf(value, sizeof(value), "%.6f", heap_.top().score);
      out.emit("topk", std::string(value) + "\t" + heap_.top().payload);
      heap_.pop();
    }
  }

 private:
  std::shared_ptr<const Profile> query_;
  double query_norm_;
  std::uint32_t k_;
  std::priority_queue<Scored> heap_;
};

class TopKReducer final : public mapred::Reducer {
 public:
  explicit TopKReducer(std::uint32_t k) : k_(k) {}

  void reduce(std::string_view key, std::span<const std::string_view> values,
              mapred::Emitter& out) override {
    if (key != "topk") return;
    std::vector<std::pair<double, std::string_view>> all;
    all.reserve(values.size());
    for (const auto& v : values) {
      const auto tab = v.find('\t');
      if (tab == std::string_view::npos) continue;
      const auto score = common::parse_double(v.substr(0, tab));
      if (!score) continue;
      all.emplace_back(*score, v.substr(tab + 1));
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    const std::size_t n = std::min<std::size_t>(k_, all.size());
    for (std::size_t i = 0; i < n; ++i) {
      char rank[32];  // "topk_" and up to 20 digits of a size_t
      std::snprintf(rank, sizeof(rank), "topk_%02zu", i);
      char score[32];
      std::snprintf(score, sizeof(score), "%.6f", all[i].first);
      out.emit(rank, std::string(score) + "\t" + std::string(all[i].second));
    }
  }

 private:
  std::uint32_t k_;
};

}  // namespace

double bigram_cosine(std::string_view a, std::string_view b) {
  const Profile pa = bigram_profile(a);
  const Profile pb = bigram_profile(b);
  const double na = norm(pa), nb = norm(pb);
  if (na == 0.0 || nb == 0.0) return 0.0;
  double dot = 0.0;
  for (const auto& [gram, v] : pa) {
    const auto it = pb.find(gram);
    if (it != pb.end()) dot += v * it->second;
  }
  return dot / (na * nb);
}

mapred::Job make_topk_search_job(std::string query, std::uint32_t k) {
  if (k == 0) throw std::invalid_argument("k == 0");
  if (query.empty()) throw std::invalid_argument("empty query");
  auto profile = std::make_shared<const Profile>(bigram_profile(query));
  const double query_norm = norm(*profile);

  mapred::Job job;
  job.config.name = "TopKSearch";
  job.config.num_reducers = 1;  // single global merge, tiny data
  job.config.cost.io_s_per_mib = 0.02;
  job.config.cost.cpu_s_per_mib = 0.90;  // similarity is the dominant cost
  job.config.cost.cpu_us_per_record = 8.0;
  job.config.cost.task_overhead_s = 1.0;
  job.mapper_factory = [profile, query_norm, k] {
    return std::make_unique<TopKMapper>(profile, query_norm, k);
  };
  job.reducer_factory = [k] { return std::make_unique<TopKReducer>(k); };
  // No combiner: each task already emits at most K pairs.
  return job;
}

}  // namespace datanet::apps
