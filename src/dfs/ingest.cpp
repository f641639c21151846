#include "dfs/ingest.hpp"

#include <stdexcept>
#include <utility>

#include "dfs/mini_dfs.hpp"

namespace datanet::dfs {

Ingestor::Ingestor(MiniDfs& dfs, std::string path, IngestOptions options)
    : dfs_(&dfs), path_(std::move(path)), options_(options) {
  if (options_.group_records == 0) {
    throw std::invalid_argument("Ingestor: group_records must be positive");
  }
  if (dfs_->make_file(path_)) return;  // a new file has no open block
  // Recovery handoff: adopt the open block a crashed ingestor left behind
  // (at most one per path under the single-mutator contract), so continued
  // ingestion packs it full before opening a new one — block boundaries stay
  // identical to a run that never crashed.
  for (const auto& open : dfs_->open_blocks()) {
    if (open.file != path_) continue;
    block_ = open.id;
    block_bytes_ = open.size_bytes;
    block_open_ = true;
  }
}

Ingestor::~Ingestor() { close(); }

std::uint64_t Ingestor::open_bytes() const {
  return block_bytes_ + buffer_.size();
}

void Ingestor::append(std::string_view record) {
  if (dfs_ == nullptr) throw std::logic_error("Ingestor: append after close");
  if (record.find('\n') != std::string_view::npos) {
    throw std::invalid_argument("Ingestor: record contains newline");
  }
  const std::uint64_t needed = record.size() + 1;
  // The boundary rule: seal when the record would overflow a non-empty
  // block; an oversized record gets a block of its own.
  if (open_bytes() > 0 && open_bytes() + needed > dfs_->options().block_size) {
    seal();
  }
  buffer_.append(record);
  buffer_.push_back('\n');
  ++buffered_records_;
  ++stats_.records_appended;
  if (buffered_records_ >= options_.group_records) flush();
}

void Ingestor::flush() {
  if (dfs_ == nullptr) throw std::logic_error("Ingestor: flush after close");
  if (buffer_.empty()) return;
  if (!block_open_) {
    block_ = dfs_->open_block(path_);
    block_open_ = true;
    ++stats_.blocks_opened;
  }
  dfs_->append_extent(block_, buffer_, buffered_records_);
  block_bytes_ += buffer_.size();
  stats_.records_committed += buffered_records_;
  stats_.bytes_committed += buffer_.size();
  ++stats_.group_commits;
  buffer_.clear();
  buffered_records_ = 0;
}

void Ingestor::seal() {
  if (dfs_ == nullptr) throw std::logic_error("Ingestor: seal after close");
  flush();
  if (!block_open_) return;
  dfs_->seal_block(block_);
  ++stats_.blocks_sealed;
  block_open_ = false;
  block_bytes_ = 0;
  if (on_seal) on_seal(block_);
}

void Ingestor::close() {
  if (dfs_ == nullptr) return;
  seal();
  dfs_ = nullptr;
}

}  // namespace datanet::dfs
