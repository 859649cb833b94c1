#pragma once

// Chunked FIFO storage for packets waiting on a device.
//
// A NetDevice holds two packet FIFOs: the drop-tail queue in front of its
// transmitter and the packets in propagation towards its peer. Both drain
// strictly in the order they fill, so each is a singly linked chain of
// fixed-capacity chunks: push appends at the tail chunk, pop consumes from
// the head chunk, and a chunk that empties goes straight back to its pool.
//
// The pool is shared by every device of one Network — the lane-block idiom
// of the event wheel (sim/simulator.hpp). Chunks are allocated only at a new
// network-wide high-water mark of waiting packets and are recycled through
// an intrusive free list afterwards, so steady-state traffic never touches
// the heap, and resident storage follows the peak number of live packets
// rather than the sum of every device's own peak. A FIFO that drains hands
// its last chunk back, so an idle device holds no packet storage at all.
// A power-of-two ring per device was rejected: every growth step touches
// twice the peak, and the rings pin that capacity per device.

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"

namespace msim {

/// Recycled fixed-size packet chunks for the FIFOs of one Network.
/// Single-threaded, like the Simulator the Network runs on.
class PacketChunkPool {
 public:
  static constexpr std::uint32_t kChunkPackets = 8;
  struct Chunk {
    std::array<Packet, kChunkPackets> slots;
    Chunk* next{nullptr};
  };

  PacketChunkPool() = default;
  PacketChunkPool(const PacketChunkPool&) = delete;
  PacketChunkPool& operator=(const PacketChunkPool&) = delete;

  /// A chunk whose slots hold moved-from (resource-free) packets.
  [[nodiscard]] Chunk* acquire();
  void release(Chunk* c) {
    c->next = free_;
    free_ = c;
  }

  /// Chunks ever allocated: the high-water mark of waiting packets, in
  /// chunks (diagnostic only).
  [[nodiscard]] std::size_t allocatedChunks() const { return chunks_.size(); }

 private:
  std::vector<std::unique_ptr<Chunk>> chunks_;
  Chunk* free_{nullptr};
};

/// A FIFO of packets stored in chunks drawn from a PacketChunkPool.
class PacketFifo {
 public:
  explicit PacketFifo(PacketChunkPool& pool) : pool_{&pool} {}
  ~PacketFifo();

  PacketFifo(const PacketFifo&) = delete;
  PacketFifo& operator=(const PacketFifo&) = delete;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push(Packet p) {
    if (tail_ == nullptr) {
      head_ = tail_ = pool_->acquire();
      headIdx_ = tailIdx_ = 0;
    } else if (tailIdx_ == PacketChunkPool::kChunkPackets) {
      PacketChunkPool::Chunk* c = pool_->acquire();
      tail_->next = c;
      tail_ = c;
      tailIdx_ = 0;
    }
    tail_->slots[tailIdx_++] = std::move(p);
    ++size_;
  }

  /// Moves the oldest packet out; its slot is left resource-free.
  Packet pop() {
    assert(size_ > 0);
    Packet p = std::move(head_->slots[headIdx_++]);
    --size_;
    if (size_ == 0) {
      pool_->release(head_);
      head_ = tail_ = nullptr;
    } else if (headIdx_ == PacketChunkPool::kChunkPackets) {
      PacketChunkPool::Chunk* done = head_;
      head_ = head_->next;
      headIdx_ = 0;
      pool_->release(done);
    }
    return p;
  }

 private:
  PacketChunkPool* pool_;
  PacketChunkPool::Chunk* head_{nullptr};
  PacketChunkPool::Chunk* tail_{nullptr};
  std::uint32_t headIdx_{0};
  std::uint32_t tailIdx_{0};
  std::size_t size_{0};
};

}  // namespace msim
