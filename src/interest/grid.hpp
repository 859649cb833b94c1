#pragma once

// Uniform AOI grid: avatar slots bucketed by quantized position.
//
// The room's pose fan-out asks one question — "which slots could be within
// radius r of (x, y)?" — and at 100k avatars the answer must not be "walk
// everyone". The grid quantizes positions to cells of edge `cellM` and keys
// them by packed (qx, qy); a radius query walks only the cells overlapping
// the query square and hands back candidates for the caller's exact circle
// test.
//
// Determinism rules (DESIGN.md §9, §12):
//  - Cells are visited in (row, column) order of their *quantized
//    coordinates* — never in hash-table or insertion order.
//  - Within a cell, entries are kept sorted by ascending slot, so the visit
//    order is a pure function of positions and slot numbers, identical
//    across runs, seeds with the same state, and any MSIM_THREADS.
//
// Each cell is one contiguous array of (id, x, y, slot) entries: a scan
// streams it front to back, and filling a fresh cell to the density passed
// to reserve() costs a single allocation.
//  - Keys are packed integers; no pointers are ever hashed or compared.
//
// Membership updates are O(cell occupancy) and only happen on cell
// crossings — at walking speed (~1.4 m/s, §5.2) an avatar crosses an 8 m
// cell boundary every few seconds, so the steady-state cost is dominated by
// the read side.

#include <cstdint>
#include <vector>

#include "util/flatmap.hpp"

namespace msim::interest {

class InterestGrid {
 public:
  /// slotKey_ sentinel: the slot is not in any cell.
  static constexpr std::uint64_t kNoCell = ~std::uint64_t{0};

  explicit InterestGrid(double cellM = 8.0) { setCellSize(cellM); }

  /// Only meaningful while empty (cells would not be rekeyed).
  void setCellSize(double cellM);
  [[nodiscard]] double cellSize() const { return cellM_; }

  /// Pre-sizes the cell table and the slot→cell map for `slots` members.
  /// Without density knowledge the cell reservation assumes the worst case
  /// of one occupied cell per member; callers that know their population
  /// density (lattice bulk setups) pass `slotsPerCell` to cap the cell
  /// tables at the true occupancy — a dense crowd at 64 slots/cell reserves
  /// 64x less, which is what keeps a 64-shard million-user run memory-lean.
  /// Each cell created afterwards reserves `slotsPerCell` entries up front,
  /// so filling a cell to that density costs one allocation.
  void reserve(std::size_t slots, std::size_t slotsPerCell = 1);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t occupiedCells() const { return cellCount_; }
  [[nodiscard]] bool contains(std::uint32_t slot) const {
    return slot < slotKey_.size() && slotKey_[slot] != kNoCell;
  }

  /// `id` is an opaque caller payload (the relay stores the user id) carried
  /// alongside the position so fan-out consumers never gather it from a
  /// room-wide column.
  void insert(std::uint32_t slot, std::uint64_t id, double x, double y);
  void remove(std::uint32_t slot);
  /// Repositions `slot` (exact position is kept alongside the cell entry,
  /// so same-cell moves update it too); returns true if a cell boundary
  /// was crossed.
  bool move(std::uint32_t slot, std::uint64_t id, double x, double y);

  /// Visits every slot in the cells that could intersect the circle of
  /// `radius` around (x, y), in (cell row, cell column, ascending slot)
  /// order, as fn(slot, id, slotX, slotY). Cells of the bounding square
  /// whose nearest point lies beyond the radius are pruned without being
  /// touched (~21% of a large query's cells sit in those corners). Payload
  /// and positions are read from the cell's own entry array — the scan
  /// streams contiguous memory instead of gathering from room-wide columns.
  /// The caller applies the exact per-slot circle test. Returns the number
  /// of slots visited.
  // detlint:hotpath interest-grid fan-out scan — BM_InterestGridFanout gates
  // it at exactly 0 allocs/forward at every room size (CI --max-alloc).
  template <typename Fn>
  std::size_t forEachCandidate(double x, double y, double radius,
                               Fn&& fn) const {
    const std::int64_t qx0 = quantize(x - radius);
    const std::int64_t qx1 = quantize(x + radius);
    const std::int64_t qy0 = quantize(y - radius);
    const std::int64_t qy1 = quantize(y + radius);
    const double r2 = radius * radius;
    std::size_t visited = 0;
    for (std::int64_t qy = qy0; qy <= qy1; ++qy) {
      const double rowLo = static_cast<double>(qy) * cellM_;
      const double dy =
          y < rowLo ? rowLo - y : (y > rowLo + cellM_ ? y - (rowLo + cellM_) : 0.0);
      const double dy2 = dy * dy;
      if (dy2 > r2) continue;
      for (std::int64_t qx = qx0; qx <= qx1; ++qx) {
        const double colLo = static_cast<double>(qx) * cellM_;
        const double dx =
            x < colLo ? colLo - x
                      : (x > colLo + cellM_ ? x - (colLo + cellM_) : 0.0);
        if (dy2 + dx * dx > r2) continue;  // cell fully outside the circle
        const std::uint32_t* cell = cells_.find(packCell(qx, qy));
        if (cell == nullptr) continue;
        const std::vector<Entry>& entries = cellPool_[*cell];
        for (const Entry& e : entries) fn(e.slot, e.id, e.x, e.y);
        visited += entries.size();
      }
    }
    return visited;
  }

  [[nodiscard]] std::int64_t quantize(double v) const;
  [[nodiscard]] static std::uint64_t packCell(std::int64_t qx, std::int64_t qy);

 private:
  /// One cell member: caller payload and exact position ride with the slot,
  /// so a radius query never gathers from room-wide columns. 32 bytes.
  struct Entry {
    std::uint64_t id;
    double x;
    double y;
    std::uint32_t slot;
  };
  static_assert(sizeof(Entry) == 32);
  /// A cell's members in one contiguous array, sorted by ascending slot.
  using Cell = std::vector<Entry>;

  /// The first entry of `cell` whose slot is not below `slot`.
  [[nodiscard]] static Cell::iterator lowerBound(Cell& cell, std::uint32_t slot);

  [[nodiscard]] std::uint64_t keyFor(double x, double y) const;
  void insertIntoCell(std::uint32_t slot, std::uint64_t id, std::uint64_t key,
                      double x, double y);
  void removeFromCell(std::uint32_t slot, std::uint64_t key);

  double cellM_{8.0};
  double invCell_{1.0 / 8.0};
  FlatMap64<std::uint32_t> cells_;      // packed cell key → cellPool_ index
  std::vector<Cell> cellPool_;
  std::vector<std::uint32_t> freeCells_;
  std::vector<std::uint64_t> slotKey_;  // slot → current cell key
  std::size_t slotsPerCell_{1};  // capacity a newly created cell reserves
  std::size_t size_{0};
  std::size_t cellCount_{0};
};

}  // namespace msim::interest
