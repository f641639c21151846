#include "apps/sessionize.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/string_util.hpp"

namespace datanet::apps {

std::string_view extract_field(std::string_view payload,
                               std::string_view field_prefix) {
  std::size_t pos = 0;
  while (pos < payload.size()) {
    // Field must start at the beginning or after a space.
    const std::size_t hit = payload.find(field_prefix, pos);
    if (hit == std::string_view::npos) return {};
    if (hit == 0 || payload[hit - 1] == ' ') {
      const std::size_t start = hit + field_prefix.size();
      std::size_t end = payload.find(' ', start);
      if (end == std::string_view::npos) end = payload.size();
      return payload.substr(start, end - start);
    }
    pos = hit + 1;
  }
  return {};
}

namespace {

class SessionizeMapper final : public mapred::Mapper {
 public:
  explicit SessionizeMapper(std::string field_prefix)
      : field_prefix_(std::move(field_prefix)) {}

  void map(const workload::RecordView& record, mapred::Emitter& out) override {
    const auto entity = extract_field(record.payload, field_prefix_);
    if (entity.empty()) return;
    out.emit(entity, std::to_string(record.timestamp));
  }

 private:
  std::string field_prefix_;
};

class SessionizeReducer final : public mapred::Reducer {
 public:
  explicit SessionizeReducer(std::uint64_t gap) : gap_(gap) {}

  void reduce(std::string_view key, std::span<const std::string_view> values,
              mapred::Emitter& out) override {
    timestamps_.clear();
    timestamps_.reserve(values.size());
    for (const auto& v : values) {
      if (const auto ts = common::parse_u64(v)) timestamps_.push_back(*ts);
    }
    if (timestamps_.empty()) return;
    std::sort(timestamps_.begin(), timestamps_.end());

    std::uint64_t sessions = 1;
    std::uint64_t span = 0;
    std::uint64_t session_start = timestamps_.front();
    for (std::size_t i = 1; i < timestamps_.size(); ++i) {
      if (timestamps_[i] - timestamps_[i - 1] > gap_) {
        span += timestamps_[i - 1] - session_start;
        session_start = timestamps_[i];
        ++sessions;
      }
    }
    span += timestamps_.back() - session_start;
    out.emit(key, "sessions=" + std::to_string(sessions) +
                      " events=" + std::to_string(timestamps_.size()) +
                      " span=" + std::to_string(span));
  }

 private:
  std::uint64_t gap_;
  std::vector<std::uint64_t> timestamps_;
};

}  // namespace

mapred::Job make_sessionize_job(std::string field_prefix,
                                std::uint64_t session_gap_seconds) {
  if (field_prefix.empty()) throw std::invalid_argument("empty field prefix");
  if (session_gap_seconds == 0) throw std::invalid_argument("zero session gap");
  mapred::Job job;
  job.config.name = "Sessionize";
  job.config.num_reducers = 16;  // many entities, small values
  job.config.cost.io_s_per_mib = 0.02;
  job.config.cost.cpu_s_per_mib = 0.20;  // parse + per-entity sort
  job.config.cost.cpu_us_per_record = 1.5;
  job.config.cost.task_overhead_s = 1.0;
  job.mapper_factory = [field_prefix] {
    return std::make_unique<SessionizeMapper>(field_prefix);
  };
  job.reducer_factory = [session_gap_seconds] {
    return std::make_unique<SessionizeReducer>(session_gap_seconds);
  };
  // Nothing folds in the mapper: session splitting needs the complete,
  // sorted timestamp set.
  return job;
}

}  // namespace datanet::apps
