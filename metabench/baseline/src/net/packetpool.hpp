#pragma once

// Freelist arena for packet payload buffers.
//
// Every datagram on the link send path used to pay one heap allocation for
// its `Packet::messages` vector (capacity 1 in the common case); at relay
// fan-out rates that is the last per-packet allocation left on the hot path.
// The arena recycles those buffers through per-size-class freelists instead
// of returning them to the general heap.
//
// The arena is thread-local: one simulation runs on exactly one thread (see
// sim/simulator.hpp), so freelists need no locks, and pooling is invisible
// to simulation behaviour — a block's address never feeds back into any
// decision, which keeps seed-sweep runs bit-identical for any thread count.
// A block freed on a different thread than it was allocated on (which the
// seed-sweep harness never does, but the allocator must tolerate) simply
// lands in that thread's freelist.

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>

namespace msim {

/// The per-thread freelist arena. Blocks are bucketed by power-of-two size
/// class from 16 bytes up to 1 KiB; larger requests (deep TCP segments
/// carrying many coalesced messages) fall through to the heap.
class PacketArena {
 public:
  static constexpr std::size_t kClassCount = 7;   // 16, 32, ..., 1024 bytes
  static constexpr std::size_t kMinBlock = 16;
  static constexpr std::size_t kMaxBlock = kMinBlock << (kClassCount - 1);
  /// Per-class cap on retained blocks; beyond this, frees go to the heap.
  static constexpr std::size_t kMaxFreePerClass = 4096;

  [[nodiscard]] static PacketArena& local();

  [[nodiscard]] void* allocate(std::size_t bytes);
  void deallocate(void* p, std::size_t bytes) noexcept;

  struct Stats {
    std::uint64_t poolHits{0};    // allocations served from a freelist
    std::uint64_t heapFills{0};   // allocations that had to touch the heap
    std::uint64_t retained{0};    // blocks currently parked in freelists
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  ~PacketArena();

 private:
  PacketArena() = default;

  struct FreeBlock {
    FreeBlock* next;
  };

  [[nodiscard]] static std::size_t classFor(std::size_t bytes);
  [[nodiscard]] static std::size_t classSize(std::size_t cls) {
    return kMinBlock << cls;
  }

  FreeBlock* free_[kClassCount] = {};
  std::size_t freeCount_[kClassCount] = {};
  Stats stats_;
};

/// Minimal std::allocator replacement backed by PacketArena. Stateless: all
/// instances are interchangeable, so containers move across scopes by
/// stealing pointers, exactly like with std::allocator.
template <typename T>
class PacketArenaAllocator {
 public:
  using value_type = T;
  using is_always_equal = std::true_type;

  PacketArenaAllocator() = default;
  template <typename U>
  PacketArenaAllocator(const PacketArenaAllocator<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(PacketArena::local().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    PacketArena::local().deallocate(p, n * sizeof(T));
  }

  friend bool operator==(const PacketArenaAllocator&, const PacketArenaAllocator&) {
    return true;
  }
  friend bool operator!=(const PacketArenaAllocator&, const PacketArenaAllocator&) {
    return false;
  }
};

}  // namespace msim
