#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "util/hotpath.hpp"

namespace msim {

std::uint32_t Simulator::acquireSlot() {
  if (!freeSlots_.empty()) {
    const std::uint32_t index = freeSlots_.back();
    freeSlots_.pop_back();
    return index;
  }
  if (slotCount_ == slotChunks_.size() * kSlotChunkSize) {
    // detlint:allow(hotpath-alloc) slab growth only when the live-event
    // high-water mark rises; chunks are never freed, so steady state
    // recycles freeSlots_ and never reaches this branch.
    slotChunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));
  }
  return slotCount_++;
}

void Simulator::releaseSlot(std::uint32_t index) {
  Slot& slot = slotAt(index);
  slot.live = false;
  ++slot.generation;  // kills outstanding EventIds and stale queue entries
  slot.cb.reset();
  freeSlots_.push_back(index);
}

// detlint:hotpath every event in the run passes through here; schedule must
// stay pool-recycled (slots, wheel lanes, overflow heap) so a 100k-avatar
// run's steady state never touches the allocator.
MSIM_HOT EventId Simulator::schedule(TimePoint t, Callback cb) {
  return scheduleStamped(t, ++localStampCounter_, std::move(cb));
}

EventId Simulator::scheduleExternal(TimePoint t, std::uint64_t stamp,
                                    Callback cb) {
  return scheduleStamped(t, stamp, std::move(cb));
}

MSIM_HOT EventId Simulator::scheduleStamped(TimePoint t, std::uint64_t stamp,
                                            Callback cb) {
  if (t < now_) t = now_;
  const std::uint32_t index = acquireSlot();
  Slot& slot = slotAt(index);
  slot.live = true;
  slot.seq = ++seqCounter_;
  slot.auditStamp = stamp;
  slot.cb = std::move(cb);
  const WheelEntry e{t.toNanos(), slot.seq, index, slot.generation};
  if ((e.timeNs >> kWheelBaseShift) <= (wheelNowNs_ >> kWheelBaseShift)) {
    ++wheelEvents_;
    drainInsertSorted(e);  // the cursor's lane: dispatchable as it stands
  } else if (inHorizon(e.timeNs)) {
    ++wheelEvents_;
    wheelInsert(e);
  } else {
    // Grows only at a new high-water mark of far entries: pops keep capacity.
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), after);
  }
  ++liveEvents_;
  ++pendingEntries_;
  return EventId{this, index, slot.generation};
}

EventId Simulator::scheduleAfter(Duration delay, Callback cb) {
  if (delay.isNegative()) delay = Duration::zero();
  return schedule(now_ + delay, std::move(cb));
}

void Simulator::cancel(const EventId& id) {
  if (id.sim_ != this || !id.valid()) return;
  releaseSlot(id.slot_);
  --liveEvents_;
}

// ---- timer wheel machinery -------------------------------------------------

void Simulator::drainInsertSorted(const WheelEntry& e) {
  // Schedule-time insert into the unconsumed suffix (the run is sorted
  // whenever schedule() can observe it). The entry carries the globally
  // largest seq, so upper_bound by (time, seq) places it behind every
  // pending same-time entry — the FIFO contract. The common burst case
  // (scheduling at or past everything still pending in the lane) appends at
  // the tail in O(1).
  if (drainHead_ == drainRun_.size()) {  // fully consumed: recycle storage
    drainRun_.clear();
    drainHead_ = 0;
  }
  const auto pos = std::upper_bound(
      drainRun_.begin() + static_cast<std::ptrdiff_t>(drainHead_),
      drainRun_.end(), e, before);
  drainRun_.insert(pos, e);
}

std::uint32_t Simulator::acquireLaneBlock() {
  if (!freeLaneBlocks_.empty()) {
    const std::uint32_t id = freeLaneBlocks_.back();
    freeLaneBlocks_.pop_back();
    laneBlockAt(id).next = kNoBlock;
    return id;
  }
  if (laneBlockCount_ == laneBlockChunks_.size() * kLaneBlockChunkSize) {
    // detlint:allow(hotpath-alloc) same slab idiom as acquireSlot: grows only
    // at a new lane-occupancy high-water mark, recycled via freeLaneBlocks_.
    laneBlockChunks_.push_back(  // detlint:allow(hotpath-alloc) slab growth
        std::make_unique<LaneBlock[]>(kLaneBlockChunkSize));
  }
  return laneBlockCount_++;
}

void Simulator::wheelInsert(const WheelEntry& e) {
  // Callers guarantee the entry fits the wheel horizon and is not earlier
  // than the cursor's lane. An entry due in the cursor's lane lands in the
  // cursor's level-0 lane, which the next advance step flushes.
  for (int level = 0;; ++level) {
    const int shift = wheelShift(level);
    if ((e.timeNs >> shift) - (wheelNowNs_ >> shift) <
        static_cast<std::int64_t>(kWheelSlots)) {
      const auto lane =
          static_cast<std::uint32_t>(e.timeNs >> shift) & kWheelSlotMask;
      Lane& ln = wheelLanes_[laneIndex(level, lane)];
      if (ln.tail == kNoBlock) {
        ln.head = ln.tail = acquireLaneBlock();
        ln.tailCount = 0;
      } else if (ln.tailCount == kLaneBlockCap) {
        const std::uint32_t b = acquireLaneBlock();
        laneBlockAt(ln.tail).next = b;
        ln.tail = b;
        ln.tailCount = 0;
      }
      laneBlockAt(ln.tail).items[ln.tailCount++] = e;
      wheelBits_[static_cast<std::size_t>(level) * kWheelWordsPerLevel +
                 (lane >> 6)] |= 1ull << (lane & 63);
      ++wheelLevelCount_[static_cast<std::size_t>(level)];
      return;
    }
  }
}

int Simulator::nextOccupiedDistance(int level, std::uint32_t from) const {
  // All occupied lanes at a level live within one revolution ahead of the
  // cursor, so the first set bit in circular scan order is the nearest in
  // absolute time. At most five word reads (start word's high bits, the
  // other words, start word's low bits).
  const std::uint64_t* words =
      &wheelBits_[static_cast<std::size_t>(level) * kWheelWordsPerLevel];
  const std::uint32_t startWord = from >> 6;
  std::uint64_t word = words[startWord] & (~0ull << (from & 63));
  for (std::uint32_t step = 0;; ++step) {
    if (word != 0) {
      const std::uint32_t w = (startWord + step) & (kWheelWordsPerLevel - 1);
      const auto lane = (w << 6) + static_cast<std::uint32_t>(
                                       std::countr_zero(word));
      return static_cast<int>((lane - from) & kWheelSlotMask);
    }
    if (step == kWheelWordsPerLevel) return -1;
    word = words[(startWord + step + 1) & (kWheelWordsPerLevel - 1)];
    if (step + 1 == kWheelWordsPerLevel) {
      word &= ~(~0ull << (from & 63));  // wrapped back: only bits below from
    }
  }
}

void Simulator::flushLane(int level, std::uint32_t lane) {
  const Lane ln = wheelLanes_[laneIndex(level, lane)];
  wheelLanes_[laneIndex(level, lane)] = Lane{};
  wheelBits_[static_cast<std::size_t>(level) * kWheelWordsPerLevel +
             (lane >> 6)] &= ~(1ull << (lane & 63));
  std::size_t walked = 0;
  for (std::uint32_t b = ln.head; b != kNoBlock;) {
    const LaneBlock& blk = laneBlockAt(b);
    const std::uint32_t n = b == ln.tail ? ln.tailCount : kLaneBlockCap;
    for (std::uint32_t i = 0; i < n; ++i) {
      const WheelEntry& e = blk.items[i];
      const Slot& slot = slotAt(e.slot);
      if (slot.generation != e.gen || !slot.live) {  // cancelled tombstone
        --pendingEntries_;
        --wheelEvents_;
        continue;
      }
      // The run is rebuilt from empty by each advance, so ordering is left
      // to one sort at advanceWheel's exit, skipped when the lane arrives in
      // (time, seq) order: the same-time burst case, as lane FIFO order is
      // seq order.
      if (!drainRun_.empty() && before(e, drainRun_.back())) {
        drainSortPending_ = true;
      }
      drainRun_.push_back(e);
    }
    walked += n;
    const std::uint32_t next = blk.next;
    freeLaneBlocks_.push_back(b);
    b = next;
  }
  wheelLevelCount_[static_cast<std::size_t>(level)] -= walked;
}

void Simulator::directDrainLane(int level, std::uint32_t lane) {
  // Whole-window drain for a level >= 1 lane whose window is clear of other
  // levels (see advanceWheel). A comparison sort over the window would pay
  // ~log2(n) compares per entry on interleaved timestamps; instead, a
  // counting scatter groups entries by their next-finer sub-lane (exactly 8
  // of them per window) in one stable pass. Groups come out in time-order
  // by construction, so the run is sorted whenever each group's entries
  // arrived in (time, seq) order — the common case, since lane FIFO order
  // is seq order and a group usually covers one burst timestamp. Only a
  // disordered group falls back to the full sort at advanceWheel's exit.
  const std::size_t idx = laneIndex(level, lane);
  const Lane ln = wheelLanes_[idx];
  wheelLanes_[idx] = Lane{};
  wheelBits_[static_cast<std::size_t>(level) * kWheelWordsPerLevel +
             (lane >> 6)] &= ~(1ull << (lane & 63));
  const int subShift = wheelShift(level - 1);
  std::array<std::uint32_t, 9> ofs{};
  wheelScratch_.clear();
  std::size_t walked = 0;
  for (std::uint32_t b = ln.head; b != kNoBlock;) {
    const LaneBlock& blk = laneBlockAt(b);
    const std::uint32_t n = b == ln.tail ? ln.tailCount : kLaneBlockCap;
    for (std::uint32_t i = 0; i < n; ++i) {
      const WheelEntry& e = blk.items[i];
      const Slot& slot = slotAt(e.slot);
      if (slot.generation != e.gen || !slot.live) {  // cancelled tombstone
        --pendingEntries_;
        --wheelEvents_;
        continue;
      }
      ++ofs[static_cast<std::size_t>((e.timeNs >> subShift) & 7) + 1];
      wheelScratch_.push_back(e);
    }
    walked += n;
    const std::uint32_t next = blk.next;
    freeLaneBlocks_.push_back(b);
    b = next;
  }
  wheelLevelCount_[static_cast<std::size_t>(level)] -= walked;
  for (std::size_t g = 1; g < 9; ++g) ofs[g] += ofs[g - 1];
  const std::size_t base = drainRun_.size();
  // Grow geometrically: an exact-size resize would reallocate on every
  // window larger than the last, however slightly.
  if (base + wheelScratch_.size() > drainRun_.capacity()) {
    drainRun_.reserve(std::bit_ceil(base + wheelScratch_.size()));
  }
  drainRun_.resize(base + wheelScratch_.size());
  std::array<std::int64_t, 8> lastTime;
  lastTime.fill(std::numeric_limits<std::int64_t>::min());
  std::array<std::uint64_t, 8> lastSeq{};
  bool ordered = true;
  for (const WheelEntry& e : wheelScratch_) {
    const auto g = static_cast<std::size_t>((e.timeNs >> subShift) & 7);
    if (e.timeNs < lastTime[g] ||
        (e.timeNs == lastTime[g] && e.seq < lastSeq[g])) {
      ordered = false;
    }
    lastTime[g] = e.timeNs;
    lastSeq[g] = e.seq;
    drainRun_[base + ofs[g]++] = e;
  }
  if (!ordered) drainSortPending_ = true;
}

void Simulator::cascadeLane(int level, std::uint32_t lane) {
  const Lane ln = wheelLanes_[laneIndex(level, lane)];
  wheelLanes_[laneIndex(level, lane)] = Lane{};
  wheelBits_[static_cast<std::size_t>(level) * kWheelWordsPerLevel +
             (lane >> 6)] &= ~(1ull << (lane & 63));
  // Re-homing always lands at a strictly finer level, never back in this
  // lane, so walking the chain while inserting is safe.
  std::size_t walked = 0;
  for (std::uint32_t b = ln.head; b != kNoBlock;) {
    const std::uint32_t n = b == ln.tail ? ln.tailCount : kLaneBlockCap;
    for (std::uint32_t i = 0; i < n; ++i) {
      const WheelEntry e = laneBlockAt(b).items[i];
      const Slot& slot = slotAt(e.slot);
      if (slot.generation != e.gen || !slot.live) {  // tombstone dies here
        --pendingEntries_;
        --wheelEvents_;
        continue;
      }
      ++cascades_;
      wheelInsert(e);
    }
    walked += n;
    const std::uint32_t next = laneBlockAt(b).next;
    freeLaneBlocks_.push_back(b);
    b = next;
  }
  wheelLevelCount_[static_cast<std::size_t>(level)] -= walked;
}

void Simulator::promoteOverflow() {
  // Entries enter the wheel once their time fits the top level's horizon.
  // Pops come out in (time, seq) order, so each lane receives them in the
  // order run() will dispatch them.
  while (!overflow_.empty() && inHorizon(overflow_.front().timeNs)) {
    std::pop_heap(overflow_.begin(), overflow_.end(), after);
    const WheelEntry e = overflow_.back();
    overflow_.pop_back();
    const Slot& slot = slotAt(e.slot);
    if (slot.generation != e.gen || !slot.live) {  // cancelled tombstone
      --pendingEntries_;
      continue;
    }
    ++cascades_;
    ++wheelEvents_;
    wheelInsert(e);
  }
}

bool Simulator::advanceWheel(std::int64_t limitNs) {
  // Only entered once the previous run is fully consumed: recycle its
  // storage and rebuild. The sort happens once at exit (and only if the
  // appends arrived out of order), after which run() and schedule-time
  // inserts both rely on the suffix staying sorted.
  drainRun_.clear();
  drainHead_ = 0;
  const auto laneAlign = [](std::int64_t ns) {
    return (ns >> kWheelBaseShift) << kWheelBaseShift;
  };
  // Promotion and cascades re-home into lanes only; the drain is filled by
  // a level-0 flush or a clear-window direct drain alone, and the loop ends
  // there. So when lanes of several levels open at the same instant, every
  // coarser one has cascaded into the level-0 lane before it is flushed.
  while (drainRun_.empty()) {
    if (!overflow_.empty()) promoteOverflow();
    // The earliest occupied window across the levels. On a window-start tie
    // the highest level cascades first, so its finer-grained entries merge
    // into the lower-level walk before anything is flushed for dispatch.
    int bestLevel = -1;
    std::int64_t bestStart = 0;
    std::uint32_t bestLane = 0;
    std::array<std::int64_t, kWheelLevels> startAt;
    for (int level = 0; level < kWheelLevels; ++level) {
      startAt[static_cast<std::size_t>(level)] = -1;
      if (wheelLevelCount_[static_cast<std::size_t>(level)] == 0) continue;
      const int shift = wheelShift(level);
      const std::int64_t cursor = wheelNowNs_ >> shift;
      const int d = nextOccupiedDistance(
          level, static_cast<std::uint32_t>(cursor) & kWheelSlotMask);
      if (d < 0) continue;
      const std::int64_t windowStart = (cursor + d) << shift;
      startAt[static_cast<std::size_t>(level)] = windowStart;
      if (bestLevel < 0 || windowStart <= bestStart) {
        bestLevel = level;
        bestStart = windowStart;
        bestLane = static_cast<std::uint32_t>(cursor + d) & kWheelSlotMask;
      }
    }
    if (bestLevel < 0) {
      if (overflow_.empty()) return false;  // no pending events anywhere
      // Overflow only, beyond the horizon: jump the cursor toward its top
      // timestamp (never past the run limit) and let promotion pull it in.
      const std::int64_t top = overflow_.front().timeNs;
      if (top > limitNs) {
        wheelNowNs_ = std::max(wheelNowNs_, laneAlign(limitNs));
        return false;
      }
      wheelNowNs_ = std::max(wheelNowNs_, laneAlign(top));
      continue;
    }
    if (bestStart > limitNs) {
      // Next event lies beyond the limit. Park the cursor at the limit's
      // lane so post-run schedules still land at or ahead of it.
      wheelNowNs_ = std::max(wheelNowNs_, laneAlign(limitNs));
      return false;
    }
    wheelNowNs_ = std::max(wheelNowNs_, bestStart);
    if (bestLevel == 0) {
      flushLane(0, bestLane);  // tombstone-only lanes leave drain empty
    } else {
      // Direct-drain shortcut: if no other level has an occupied window
      // starting inside this lane's window, nothing can interleave with the
      // lane's contents — remaining overflow lies beyond the horizon
      // (promotion just ran) and every other wheel entry is due later. The
      // lane then skips the level-by-level re-homing and drains whole; the
      // exit sort restores exact (time, seq) order. The cursor parks on the
      // window's *last* level-0 lane so same-window schedules join the
      // sorted drain suffix rather than landing in a lane behind pending
      // drain entries. A window-start tie (startAt == bestStart at a finer
      // level) fails the check, which is what forces the merge cascade.
      const std::int64_t windowEnd =
          bestStart + (std::int64_t{1} << wheelShift(bestLevel));
      bool windowClear = true;
      for (int level = 0; level < kWheelLevels; ++level) {
        const std::int64_t s = startAt[static_cast<std::size_t>(level)];
        if (level != bestLevel && s >= 0 && s < windowEnd) {
          windowClear = false;
          break;
        }
      }
      if (windowClear) {
        wheelNowNs_ = std::max(wheelNowNs_, laneAlign(windowEnd - 1));
        directDrainLane(bestLevel, bestLane);
      } else {
        cascadeLane(bestLevel, bestLane);
      }
    }
  }
  if (drainSortPending_) {
    std::sort(drainRun_.begin(), drainRun_.end(), before);
    drainSortPending_ = false;
  }
  return true;
}

// detlint:hotpath the dispatch loop — wheel advance, drain-run reuse, and
// callback invocation are all pool-backed; allocating here would show up in
// every per-event cost the benches gate.
MSIM_HOT std::size_t Simulator::dispatchThrough(TimePoint limit) {
  std::size_t executed = 0;
  const std::int64_t limitNs = limit.toNanos();
  for (;;) {
    if (drainHead_ == drainRun_.size() && !advanceWheel(limitNs)) break;
    const WheelEntry top = drainRun_[drainHead_];
    Slot& slot = slotAt(top.slot);
    if (slot.generation != top.gen || !slot.live) {  // cancelled tombstone
      ++drainHead_;
      --pendingEntries_;
      --wheelEvents_;
      continue;
    }
    if (top.timeNs > limitNs) break;
#ifndef NDEBUG
    // The (time, seq) contract, checked at the one place it is observable.
    assert(before(WheelEntry{lastFiredNs_, lastFiredSeq_, 0, 0}, top));
    lastFiredNs_ = top.timeNs;
    lastFiredSeq_ = top.seq;
#endif
    ++drainHead_;
    --pendingEntries_;
    --wheelEvents_;
    now_ = TimePoint::fromNanos(top.timeNs);
    if (auditor_) auditor_->onEvent(top.timeNs, slot.auditStamp);
    // Retire the slot before invoking — valid() reads false and cancel()
    // is a no-op while the callback runs — but keep it off the free list
    // until afterwards, so the callback executes in place (slot addresses
    // are stable) without being recycled under its own feet. Callbacks may
    // schedule at the current instant: the new entry's larger seq files it
    // behind every pending same-time entry, exactly the FIFO contract.
    slot.live = false;
    ++slot.generation;
    --liveEvents_;
    slot.cb();
    slot.cb.reset();
    freeSlots_.push_back(top.slot);
    ++executed;
    ++executed_;
  }
  return executed;
}

std::size_t Simulator::run(TimePoint limit) {
  const std::size_t executed = dispatchThrough(limit);
  if (limit != TimePoint::max() && now_ < limit) now_ = limit;
  return executed;
}

TimePoint Simulator::nextEventTimeLowerBound() const {
  if (liveEvents_ == 0) return TimePoint::max();
  constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();
  std::int64_t best = kNone;
  // The partially consumed drain run holds exact times and stays sorted
  // between run() calls (schedule-time inserts use the sorted path), so the
  // first live entry in the unconsumed suffix is the true next dispatch of
  // that tier.
  for (std::size_t i = drainHead_; i < drainRun_.size(); ++i) {
    const WheelEntry& e = drainRun_[i];
    const Slot& slot = slotAt(e.slot);
    if (slot.generation == e.gen && slot.live) {
      best = e.timeNs;
      break;
    }
  }
  // Each level's nearest occupied lane: all other occupied lanes of the
  // level hold strictly later times (one-revolution invariant), so the min
  // live time in this lane is the level's exact next dispatch. A lane of
  // pure tombstones still contributes its window start — early, never late,
  // which keeps the bound conservative until a run() sweeps the lane and
  // reclaims it.
  for (int level = 0; level < kWheelLevels; ++level) {
    if (wheelLevelCount_[static_cast<std::size_t>(level)] == 0) continue;
    const int shift = wheelShift(level);
    const std::int64_t cursor = wheelNowNs_ >> shift;
    const int d = nextOccupiedDistance(
        level, static_cast<std::uint32_t>(cursor) & kWheelSlotMask);
    if (d < 0) continue;
    const std::int64_t windowStart = (cursor + d) << shift;
    if (windowStart >= best) continue;
    const std::uint32_t lane =
        static_cast<std::uint32_t>(cursor + d) & kWheelSlotMask;
    const Lane& ln = wheelLanes_[laneIndex(level, lane)];
    std::int64_t laneBest = kNone;
    for (std::uint32_t b = ln.head; b != kNoBlock;) {
      const LaneBlock& blk = laneBlockAt(b);
      const std::uint32_t n = b == ln.tail ? ln.tailCount : kLaneBlockCap;
      for (std::uint32_t i = 0; i < n; ++i) {
        const WheelEntry& e = blk.items[i];
        const Slot& slot = slotAt(e.slot);
        if (slot.generation == e.gen && slot.live && e.timeNs < laneBest) {
          laneBest = e.timeNs;
        }
      }
      b = blk.next;
    }
    best = std::min(best, laneBest == kNone ? windowStart : laneBest);
  }
  if (!overflow_.empty()) best = std::min(best, overflow_.front().timeNs);
  if (best == kNone) return TimePoint::max();
  return TimePoint::fromNanos(std::max(best, now_.toNanos()));
}

PeriodicTask::PeriodicTask(Simulator& sim, Duration period, Callback cb)
    : PeriodicTask{sim, period, period, std::move(cb)} {}

PeriodicTask::PeriodicTask(Simulator& sim, Duration period, Duration phase, Callback cb)
    : sim_{sim}, period_{period}, cb_{std::move(cb)} {
  arm(phase);
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::stop() {
  running_ = false;
  sim_.cancel(pending_);
}

void PeriodicTask::arm(Duration delay) {
  // The destructor and stop() cancel the pending tick, and cancel() is
  // exact, so a tick never outlives its task.
  pending_ = sim_.scheduleAfter(delay, [this] {
    cb_();
    if (running_) arm(period_);
  });
}

}  // namespace msim
