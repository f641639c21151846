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
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.hpp"
#include "common/hash.hpp"
#include "mapred/job.hpp"

namespace datanet::mapred {

// Gives each distinct (hash, key) a dense id, 0, 1, 2, ... in first-seen
// order. The caller hashes, with one function for every key of an index.
// Without an arena, keys are borrowed and must outlive the index; with one,
// each new key is copied into it once, so a key need only live through id().
class KeyIndex {
 public:
  struct Entry {
    std::uint64_t hash;
    std::string_view key;
  };

  explicit KeyIndex(common::Arena* arena = nullptr) : arena_(arena) {}

  std::uint32_t id(std::uint64_t hash, std::string_view key) {
    if (2 * (entries_.size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = slot_of(hash);; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.id == kEmpty) {
        s = {hash, static_cast<std::uint32_t>(entries_.size())};
        if (arena_ != nullptr) {
          char* bytes = static_cast<char*>(arena_->allocate(key.size(), 1));
          std::ranges::copy(key, bytes);
          key = {bytes, key.size()};
        }
        entries_.push_back({hash, key});
        return s.id;
      }
      if (s.hash == hash && entries_[s.id].key == key) return s.id;
    }
  }

  [[nodiscard]] const Entry& operator[](std::uint32_t id) const {
    return entries_[id];
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffff;
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t id = kEmpty;
  };

  // Top bits: every key of one reduce partition shares hash % R, so the low
  // bits would cluster.
  [[nodiscard]] std::size_t slot_of(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash >> shift_);
  }

  void grow() {
    const std::size_t capacity = slots_.empty() ? 64 : 2 * slots_.size();
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    slots_.assign(capacity, Slot{});
    for (std::uint32_t id = 0; id < entries_.size(); ++id) {
      std::size_t i = slot_of(entries_[id].hash);
      while (slots_[i].id != kEmpty) i = (i + 1) & (capacity - 1);
      slots_[i] = {entries_[id].hash, id};
    }
  }

  common::Arena* arena_;     // null: keys are borrowed
  std::vector<Slot> slots_;  // power-of-two size, at most half full
  unsigned shift_ = 64;
  std::vector<Entry> entries_;  // by id
};

class SumTable {
 public:
  // Adds `delta` to `key`'s sum; `key` need only live through the call.
  void add(std::string_view key, std::uint64_t delta) {
    const std::uint32_t id = index_.id(common::hash_bytes(key), key);
    if (id == sums_.size()) sums_.push_back(0);
    sums_[id] += delta;
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
