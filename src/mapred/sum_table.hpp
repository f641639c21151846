#pragma once
// Folding a map task's output by key, in the mapper: the one place a job
// shrinks its shuffle. SumTable keeps a u64 sum per key for one task and
// SumReducer adds the tasks' sums up; WordCount (+1 per word) and
// FilterStats (+bytes per matched record) fold through it. Both the
// SumTable and the engine's reduce-side grouping index keys with KeyIndex,
// the one flat open-addressing table keyed by strings.

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/hash.hpp"
#include "mapred/job.hpp"

namespace datanet::mapred {

// Gives each distinct (hash, key) a dense id, 0, 1, 2, ... in first-seen
// order. The caller hashes, with one function for every key of an index.
// Without an arena, keys are borrowed and must outlive the index; with one,
// each new key is copied into it once, so a key need only live through id().
// A slot holds the key's length and first 16 bytes beside its hash, so a
// probe settles a key of up to 16 bytes in registers and reads the stored
// key only past its 16th byte.
class KeyIndex {
 public:
  struct Entry {
    std::uint64_t hash;
    std::string_view key;
  };

  explicit KeyIndex(common::Arena* arena = nullptr)
      : arena_(arena), slots_(kFirstCapacity) {}

  std::uint32_t id(std::uint64_t hash, std::string_view key) {
    const auto [lo, hi] = head_of(key);
    const auto len = static_cast<std::uint32_t>(key.size());
    for (std::size_t i = slot_of(hash);; i = (i + 1) & (slots_.size() - 1)) {
      const Slot& s = slots_[i];
      if (s.id == kEmpty) return insert(i, hash, key, lo, hi);
      if (s.hash == hash && s.len == len && s.lo == lo && s.hi == hi &&
          (len <= 16 || std::memcmp(entries_[s.id].key.data() + 16,
                                    key.data() + 16, len - 16) == 0)) {
        return s.id;
      }
    }
  }

  [[nodiscard]] const Entry& operator[](std::uint32_t id) const {
    return entries_[id];
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffff;
  static constexpr std::size_t kFirstCapacity = 64;

  struct alignas(32) Slot {
    std::uint64_t hash = 0;
    std::uint32_t id = kEmpty;
    std::uint32_t len = 0;
    std::uint64_t lo = 0;  // the key's first 16 bytes (head_of)
    std::uint64_t hi = 0;
  };

  // A key's first 16 bytes as two little-endian words, zero past its end,
  // read without touching a byte past it.
  static std::pair<std::uint64_t, std::uint64_t> head_of(std::string_view key) {
    using common::detail::load_le32;
    using common::detail::load_le64;
    const char* p = key.data();
    const std::size_t n = key.size();
    if (n >= 16) return {load_le64(p), load_le64(p + 8)};
    if (n > 8) return {load_le64(p), load_le64(p + n - 8) >> (8 * (16 - n))};
    if (n >= 4) {
      return {load_le32(p) |
                  std::uint64_t{load_le32(p + n - 4)} << (8 * (n - 4)),
              0};
    }
    if (n == 0) return {0, 0};
    const auto byte = [p](std::size_t i) {
      return std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
    };
    return {byte(0) | byte(n / 2) | byte(n - 1), 0};
  }

  // Top bits: every key of one reduce partition shares hash % R, so the low
  // bits would cluster.
  [[nodiscard]] std::size_t slot_of(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash >> shift_);
  }

  // A first-seen key, into the empty slot i its probe ended on. Kept out of
  // line, so the probe loop inlined into callers stays small.
  [[gnu::noinline]] std::uint32_t insert(std::size_t i, std::uint64_t hash,
                                         std::string_view key,
                                         std::uint64_t lo, std::uint64_t hi) {
    const auto id = static_cast<std::uint32_t>(entries_.size());
    slots_[i] = {hash, id, static_cast<std::uint32_t>(key.size()), lo, hi};
    if (arena_ != nullptr) {
      char* bytes = static_cast<char*>(arena_->allocate(key.size(), 1));
      std::ranges::copy(key, bytes);
      key = {bytes, key.size()};
    }
    entries_.push_back({hash, key});
    if (2 * entries_.size() > slots_.size()) grow();
    return id;
  }

  void grow() {
    const std::size_t capacity = 2 * slots_.size();
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.id == kEmpty) continue;
      std::size_t i = slot_of(s.hash);
      while (slots_[i].id != kEmpty) i = (i + 1) & (capacity - 1);
      slots_[i] = s;
    }
  }

  common::Arena* arena_;     // null: keys are borrowed
  std::vector<Slot> slots_;  // power-of-two size, at most half full
  unsigned shift_ =
      64 - static_cast<unsigned>(std::countr_zero(kFirstCapacity));
  std::vector<Entry> entries_;  // by id
};

class SumTable {
 public:
  // Adds `delta` to `key`'s sum; `key` need only live through the call.
  // `hash` is common::word_hash(key), which common::scan_words hands out
  // with each word.
  void add(std::uint64_t hash, std::string_view key, std::uint64_t delta) {
    const std::uint32_t id = index_.id(hash, key);
    if (id == sums_.size()) sums_.push_back(0);
    sums_[id] += delta;
  }
  void add(std::string_view key, std::uint64_t delta) {
    add(common::word_hash(key), key, delta);
  }

  // One (key, decimal sum) pair per key, in first-seen order, which is the
  // same at any thread count since a table belongs to one task.
  void emit(Emitter& out) const {
    for (std::uint32_t id = 0; id < sums_.size(); ++id) {
      out.emit(index_[id].key, std::to_string(sums_[id]));
    }
  }

 private:
  common::Arena arena_;
  KeyIndex index_{&arena_};
  std::vector<std::uint64_t> sums_;  // by key id
};

// Emits each key with the sum of its decimal values.
class SumReducer final : public Reducer {
 public:
  void reduce(std::string_view key, std::span<const std::string_view> values,
              Emitter& out) override {
    std::uint64_t sum = 0;
    for (const auto& v : values) {
      std::uint64_t x = 0;
      std::from_chars(v.data(), v.data() + v.size(), x);
      sum += x;
    }
    out.emit(key, std::to_string(sum));
  }
};

}  // namespace datanet::mapred
