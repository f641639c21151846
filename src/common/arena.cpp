#include "common/arena.hpp"

#include <cstdint>
#include <limits>
#include <new>

namespace datanet::common {

namespace {

std::uintptr_t align_up(std::uintptr_t v, std::size_t align) {
  return (v + align - 1) & ~static_cast<std::uintptr_t>(align - 1);
}

}  // namespace

Arena::Arena(std::size_t chunk_bytes)
    : next_chunk_bytes_(chunk_bytes ? chunk_bytes : kDefaultChunkBytes) {}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  // Over-aligned requests are legal for any power-of-two `align`: both paths
  // align_up the *absolute* address, so the alignof(max_align_t) guarantee of
  // new[] is irrelevant — the padding comes out of the block itself
  // (tests/hotpath_test.cpp sweeps align 1..128 on both paths).
  if (bytes > std::numeric_limits<std::size_t>::max() - align) {
    throw std::bad_alloc{};  // bytes + align would wrap below
  }
  if (bytes + align > next_chunk_bytes_ / 2) {
    // Dedicated block: chunk growth stays geometric and a rare huge request
    // never strands the tail of the active chunk.
    Chunk c{std::make_unique_for_overwrite<std::byte[]>(bytes + align),
            bytes + align};
    void* out = reinterpret_cast<void*>(
        align_up(reinterpret_cast<std::uintptr_t>(c.data.get()), align));
    large_.push_back(std::move(c));
    used_ += bytes;
    return out;
  }
  for (;;) {
    if (cur_ < chunks_.size()) {
      Chunk& c = chunks_[cur_];
      const auto base = reinterpret_cast<std::uintptr_t>(c.data.get());
      const std::size_t aligned =
          static_cast<std::size_t>(align_up(base + off_, align) - base);
      if (aligned + bytes <= c.size) {
        off_ = aligned + bytes;
        used_ += bytes;
        return c.data.get() + aligned;
      }
      // Chunk full (or a reused chunk smaller than this request): move on.
      ++cur_;
      off_ = 0;
      continue;
    }
    if (!chunks_.empty() && next_chunk_bytes_ < kMaxChunkBytes) {
      next_chunk_bytes_ *= 2;
    }
    // Not zero-filled: every byte is written before it is read.
    chunks_.push_back(
        Chunk{std::make_unique_for_overwrite<std::byte[]>(next_chunk_bytes_),
              next_chunk_bytes_});
  }
}

void Arena::reset() {
  cur_ = 0;
  off_ = 0;
  used_ = 0;
  large_.clear();
}

std::size_t Arena::bytes_reserved() const {
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.size;
  for (const Chunk& c : large_) total += c.size;
  return total;
}

}  // namespace datanet::common
