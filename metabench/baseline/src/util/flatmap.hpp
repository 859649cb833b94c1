#pragma once

// A flat open-addressed hash map for 64-bit integer keys.
//
// The hot tables of the relay tier (room user index, per-server delivery
// bindings) are all uint64 -> small-value maps that are read on every
// forwarded message but mutated only on membership changes. Node-based
// std::map/std::unordered_map pay a pointer chase (and an allocation per
// insert) on exactly that read path; this map stores cells inline in one
// power-of-two array with linear probing and backward-shift deletion, so
// lookups are a multiply, a mask and a short linear scan, and erase leaves
// no tombstones behind.
//
// Iteration (forEach) walks cells in slot order. That order is a pure
// function of the insertion/erase history — never of pointer values or
// global state — so simulations that iterate these tables stay bit-identical
// across runs and across seed-sweep thread counts.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace msim {

template <typename V>
class FlatMap64 {
 public:
  FlatMap64() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    cells_.clear();
    used_.clear();
    mask_ = 0;
    size_ = 0;
  }

  /// Pre-sizes the table so `n` inserts stay rehash-free.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 / 4 < n) cap <<= 1;
    if (cap > capacity()) rehash(cap);
  }

  [[nodiscard]] V* find(std::uint64_t key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = idealSlot(key);; i = (i + 1) & mask_) {
      if (!used_[i]) return nullptr;
      if (cells_[i].key == key) return &cells_[i].value;
    }
  }
  [[nodiscard]] const V* find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }
  [[nodiscard]] bool contains(std::uint64_t key) const {
    return find(key) != nullptr;
  }

  /// Returns the value for `key`, default-constructing it on first use.
  V& operator[](std::uint64_t key) {
    if (capacity() == 0 || size_ + 1 > capacity() * 3 / 4) {
      rehash(capacity() == 0 ? kMinCapacity : capacity() * 2);
    }
    for (std::size_t i = idealSlot(key);; i = (i + 1) & mask_) {
      if (!used_[i]) {
        used_[i] = 1;
        cells_[i].key = key;
        cells_[i].value = V{};
        ++size_;
        return cells_[i].value;
      }
      if (cells_[i].key == key) return cells_[i].value;
    }
  }

  void insert(std::uint64_t key, V value) { (*this)[key] = std::move(value); }

  /// Removes `key`; returns false when absent. Backward-shift deletion keeps
  /// probe chains compact (no tombstones to skip on later lookups).
  bool erase(std::uint64_t key) {
    if (size_ == 0) return false;
    std::size_t i = idealSlot(key);
    for (;; i = (i + 1) & mask_) {
      if (!used_[i]) return false;
      if (cells_[i].key == key) break;
    }
    // Backward-shift: walk the cluster after the hole and pull back every
    // element whose ideal slot lies cyclically at or before the hole. An
    // element sitting at (or probing from) a slot after the hole must be
    // *skipped*, not treated as the end of the cluster — stopping there
    // would strand later elements behind the new empty slot.
    std::size_t hole = i;
    for (std::size_t j = (hole + 1) & mask_; used_[j]; j = (j + 1) & mask_) {
      const std::size_t ideal = idealSlot(cells_[j].key);
      if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
        cells_[hole] = std::move(cells_[j]);
        hole = j;
      }
    }
    used_[hole] = 0;
    cells_[hole] = Cell{};
    --size_;
    return true;
  }

  /// Visits every (key, value) in slot order. Deterministic given the same
  /// mutation history; do not insert or erase from inside `fn`.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (used_[i]) fn(cells_[i].key, cells_[i].value);
    }
  }
  template <typename Fn>
  void forEach(Fn&& fn) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (used_[i]) fn(cells_[i].key, cells_[i].value);
    }
  }

  /// Visits every (key, value) in ascending key order — the sanctioned way
  /// to iterate when the visit order is observable (fan-out, reports,
  /// digests): sorted-by-key order depends on the keys alone, never on
  /// insertion/erase history or table capacity. Costs one index sort per
  /// call; do not insert or erase from inside `fn`.
  template <typename Fn>
  void forEachOrdered(Fn&& fn) const {
    for (const std::size_t i : orderedSlots()) fn(cells_[i].key, cells_[i].value);
  }
  template <typename Fn>
  void forEachOrdered(Fn&& fn) {
    for (const std::size_t i : orderedSlots()) fn(cells_[i].key, cells_[i].value);
  }

 private:
  [[nodiscard]] std::vector<std::size_t> orderedSlots() const {
    std::vector<std::size_t> slots;
    slots.reserve(size_);
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (used_[i]) slots.push_back(i);
    }
    std::sort(slots.begin(), slots.end(), [this](std::size_t a, std::size_t b) {
      return cells_[a].key < cells_[b].key;
    });
    return slots;
  }

  struct Cell {
    std::uint64_t key{0};
    V value{};
  };
  static constexpr std::size_t kMinCapacity = 8;

  [[nodiscard]] std::size_t capacity() const { return cells_.size(); }

  // Fibonacci hashing: one multiply spreads dense user ids (1, 2, 3, ...)
  // across the whole table.
  [[nodiscard]] std::size_t idealSlot(std::uint64_t key) const {
    return static_cast<std::size_t>(key * 0x9E3779B97F4A7C15ull) & mask_;
  }

  void rehash(std::size_t newCapacity) {
    std::vector<Cell> oldCells = std::move(cells_);
    std::vector<std::uint8_t> oldUsed = std::move(used_);
    cells_.clear();
    cells_.resize(newCapacity);  // resize, not assign: move-only V works
    used_.assign(newCapacity, 0);
    mask_ = newCapacity - 1;
    size_ = 0;
    for (std::size_t i = 0; i < oldCells.size(); ++i) {
      if (oldUsed[i]) (*this)[oldCells[i].key] = std::move(oldCells[i].value);
    }
  }

  std::vector<Cell> cells_;
  std::vector<std::uint8_t> used_;  // separate byte array: V need not reserve a sentinel
  std::size_t mask_{0};
  std::size_t size_{0};
};

}  // namespace msim
