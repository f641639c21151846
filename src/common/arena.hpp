#pragma once
// Bump allocator for phase-scoped scratch: allocation is pointer arithmetic
// into geometrically-growing chunks, and the whole arena is released (or
// rewound with reset()) at once — no per-object frees. The mapred engine
// gives each map task its own Arena for its per-reducer partition vectors
// and the key and value bytes they view, so the shuffle stops hitting the
// global heap per pair. Oversized requests fall back to dedicated blocks so
// one huge vector never poisons the chunk chain. Not thread-safe: one arena
// per task/thread by construction.

#include <cstddef>
#include <memory>
#include <vector>

namespace datanet::common {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;
  static constexpr std::size_t kMaxChunkBytes = 8 * 1024 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes);
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // `align` must be a power of two. Never returns nullptr (zero-byte
  // requests are rounded up to one byte so pointers stay distinct).
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align);

  // Rewind to empty. Normal chunks are retained for reuse; dedicated
  // large-object blocks are freed. Outstanding pointers become invalid.
  void reset();

  [[nodiscard]] std::size_t bytes_used() const { return used_; }
  [[nodiscard]] std::size_t bytes_reserved() const;

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  std::vector<Chunk> chunks_;
  std::vector<Chunk> large_;  // oversized one-off blocks (freed on reset)
  std::size_t cur_ = 0;       // active chunk index
  std::size_t off_ = 0;       // bump offset within the active chunk
  std::size_t next_chunk_bytes_;
  std::size_t used_ = 0;
};

// Minimal std-compatible allocator over an Arena; deallocate is a no-op
// (memory comes back via Arena::reset or destruction). Containers using it
// must not outlive their arena.
template <class T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena& arena) noexcept : arena_(&arena) {}
  template <class U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) noexcept {}

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  template <class U>
  bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_;
};

template <class T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace datanet::common
