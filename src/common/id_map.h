// IdMap: an open-addressing hash map from a non-negative int id (a
// CoflowId or FlowId) to a small trivially copyable value — the id -> slot
// index under the serving Master, LinkLoadState and PriorityOrder.
//
// Ids are hashed multiplicatively (Fibonacci hashing: the top bits of
// id · 2^64/φ) into a power-of-two table of inline (key, value) cells,
// probed linearly. The table doubles before it passes half full, and an
// erase shifts the rest of its probe run back into the hole instead of
// leaving a tombstone, so a lookup never walks past the end of its run.
// Entries live in the table itself: an insert allocates only when the
// table doubles, and clear() keeps the table, so a map refilled to the
// size it had allocates nothing.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace ncdrf {

template <typename Value>
class IdMap {
  static_assert(std::is_trivially_copyable_v<Value>,
                "IdMap values are copied as cells move");

 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Cells in the table (0 or a power of two, at least twice size()).
  std::size_t capacity() const { return cells_.size(); }

  // The value stored for `id`, or nullptr. A negative id is never stored.
  const Value* find(int id) const {
    if (id < 0 || size_ == 0) return nullptr;
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      const Cell& cell = cells_[i];
      if (cell.key == id) return &cell.value;
      if (cell.key == kEmpty) return nullptr;
    }
  }
  Value* find(int id) {
    return const_cast<Value*>(std::as_const(*this).find(id));
  }
  bool contains(int id) const { return find(id) != nullptr; }

  // Stores `value` for `id` unless `id` is present. Returns the stored
  // value and whether this call inserted it. Throws CheckError on a
  // negative id.
  std::pair<Value*, bool> insert(int id, const Value& value) {
    NCDRF_CHECK(id >= 0, "IdMap ids must be non-negative");
    if (2 * (size_ + 1) > cells_.size()) {
      rehash(cells_.empty() ? kMinCapacity : 2 * cells_.size());
    }
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      Cell& cell = cells_[i];
      if (cell.key == id) return {&cell.value, false};
      if (cell.key == kEmpty) {
        cell = Cell{id, value};
        ++size_;
        return {&cell.value, true};
      }
    }
  }

  // Stores `value` for `id`, replacing any value it had.
  void assign(int id, const Value& value) {
    const auto [stored, inserted] = insert(id, value);
    if (!inserted) *stored = value;
  }

  // Removes `id`; false when it was absent.
  bool erase(int id) {
    if (id < 0 || size_ == 0) return false;
    std::size_t hole = home(id);
    while (cells_[hole].key != id) {
      if (cells_[hole].key == kEmpty) return false;
      hole = (hole + 1) & mask_;
    }
    // Backward shift: a later cell of the run moves into the hole unless
    // its home lies cyclically in (hole, cell], where it would become
    // unreachable.
    for (std::size_t i = (hole + 1) & mask_;; i = (i + 1) & mask_) {
      const int key = cells_[i].key;
      if (key == kEmpty) break;
      if (((i - home(key)) & mask_) >= ((i - hole) & mask_)) {
        cells_[hole] = cells_[i];
        hole = i;
      }
    }
    cells_[hole].key = kEmpty;
    --size_;
    return true;
  }

  // Forgets every entry and keeps the table.
  void clear() {
    if (size_ == 0) return;
    for (Cell& cell : cells_) cell.key = kEmpty;
    size_ = 0;
  }

  // Sizes the table so that `n` entries fit without a rehash.
  void reserve(std::size_t n) {
    const std::size_t want = std::bit_ceil(std::max(2 * n, kMinCapacity));
    if (want > cells_.size()) rehash(want);
  }

  // The 64-bit mix whose top bits pick an id's home cell; public so tests
  // can build sets of ids that share a home.
  static std::uint64_t mix(int id) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)) *
           0x9E3779B97F4A7C15ULL;
  }

 private:
  static constexpr int kEmpty = -1;
  static constexpr std::size_t kMinCapacity = 16;

  struct Cell {
    int key = kEmpty;
    Value value{};
  };

  std::size_t home(int id) const {
    return static_cast<std::size_t>(mix(id) >> shift_);
  }

  void rehash(std::size_t capacity) {
    std::vector<Cell> old(capacity);
    old.swap(cells_);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (const Cell& cell : old) {
      if (cell.key == kEmpty) continue;
      std::size_t i = home(cell.key);
      while (cells_[i].key != kEmpty) i = (i + 1) & mask_;
      cells_[i] = cell;
    }
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace ncdrf
