#include "interest/grid.hpp"

#include <algorithm>
#include <cmath>

namespace msim::interest {

void InterestGrid::setCellSize(double cellM) {
  cellM_ = cellM > 0.0 ? cellM : 1.0;
  invCell_ = 1.0 / cellM_;
}

std::int64_t InterestGrid::quantize(double v) const {
  return static_cast<std::int64_t>(std::floor(v * invCell_));
}

std::uint64_t InterestGrid::packCell(std::int64_t qx, std::int64_t qy) {
  // Bias into unsigned halves so nearby negative/positive coordinates pack
  // into distinct keys; world coordinates stay far inside ±2^31 cells.
  constexpr std::int64_t kBias = std::int64_t{1} << 31;
  const auto ux = static_cast<std::uint64_t>(static_cast<std::uint32_t>(qx + kBias));
  const auto uy = static_cast<std::uint64_t>(static_cast<std::uint32_t>(qy + kBias));
  return (ux << 32) | uy;
}

std::uint64_t InterestGrid::keyFor(double x, double y) const {
  return packCell(quantize(x), quantize(y));
}

void InterestGrid::reserve(std::size_t slots, std::size_t slotsPerCell) {
  if (slotsPerCell < 1) slotsPerCell = 1;
  slotsPerCell_ = slotsPerCell;
  const std::size_t cells = (slots + slotsPerCell - 1) / slotsPerCell;
  cells_.reserve(cells);
  cellPool_.reserve(cells);
  if (slotKey_.size() < slots) slotKey_.resize(slots, kNoCell);
}

InterestGrid::Cell::iterator InterestGrid::lowerBound(Cell& cell,
                                                      std::uint32_t slot) {
  return std::lower_bound(
      cell.begin(), cell.end(), slot,
      [](const Entry& e, std::uint32_t s) { return e.slot < s; });
}

void InterestGrid::insertIntoCell(std::uint32_t slot, std::uint64_t id,
                                  std::uint64_t key, double x, double y) {
  std::uint32_t* idx = cells_.find(key);
  if (idx == nullptr) {
    std::uint32_t fresh;
    if (!freeCells_.empty()) {
      fresh = freeCells_.back();
      freeCells_.pop_back();
    } else {
      fresh = static_cast<std::uint32_t>(cellPool_.size());
      cellPool_.emplace_back().reserve(slotsPerCell_);
    }
    cells_[key] = fresh;
    ++cellCount_;
    idx = cells_.find(key);
  }
  Cell& cell = cellPool_[*idx];
  cell.insert(lowerBound(cell, slot), Entry{id, x, y, slot});
}

void InterestGrid::removeFromCell(std::uint32_t slot, std::uint64_t key) {
  std::uint32_t* idx = cells_.find(key);
  if (idx == nullptr) return;
  Cell& cell = cellPool_[*idx];
  const auto it = lowerBound(cell, slot);
  if (it != cell.end() && it->slot == slot) cell.erase(it);
  if (cell.empty()) {
    freeCells_.push_back(*idx);
    cells_.erase(key);
    --cellCount_;
  }
}

void InterestGrid::insert(std::uint32_t slot, std::uint64_t id, double x,
                          double y) {
  if (slot >= slotKey_.size()) slotKey_.resize(slot + 1, kNoCell);
  if (slotKey_[slot] != kNoCell) {
    move(slot, id, x, y);
    return;
  }
  const std::uint64_t key = keyFor(x, y);
  insertIntoCell(slot, id, key, x, y);
  slotKey_[slot] = key;
  ++size_;
}

void InterestGrid::remove(std::uint32_t slot) {
  if (!contains(slot)) return;
  removeFromCell(slot, slotKey_[slot]);
  slotKey_[slot] = kNoCell;
  --size_;
}

bool InterestGrid::move(std::uint32_t slot, std::uint64_t id, double x,
                        double y) {
  if (!contains(slot)) {
    insert(slot, id, x, y);
    return true;
  }
  const std::uint64_t key = keyFor(x, y);
  if (key == slotKey_[slot]) {
    // Same cell: refresh the stored payload and exact position in place.
    *lowerBound(cellPool_[*cells_.find(key)], slot) = Entry{id, x, y, slot};
    return false;
  }
  removeFromCell(slot, slotKey_[slot]);
  insertIntoCell(slot, id, key, x, y);
  slotKey_[slot] = key;
  return true;
}

}  // namespace msim::interest
