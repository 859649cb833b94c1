#include "net/packetpool.hpp"

namespace msim {

PacketArena& PacketArena::local() {
  thread_local PacketArena arena;
  return arena;
}

std::size_t PacketArena::classFor(std::size_t bytes) {
  std::size_t cls = 0;
  std::size_t size = kMinBlock;
  while (size < bytes) {
    size <<= 1;
    ++cls;
  }
  return cls;
}

void* PacketArena::allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxBlock) {
    ++stats_.heapFills;
    return ::operator new(bytes);
  }
  const std::size_t cls = classFor(bytes);
  if (FreeBlock* block = free_[cls]) {
    free_[cls] = block->next;
    --freeCount_[cls];
    --stats_.retained;
    ++stats_.poolHits;
    return block;
  }
  ++stats_.heapFills;
  return ::operator new(classSize(cls));
}

void PacketArena::deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxBlock) {
    ::operator delete(p);
    return;
  }
  const std::size_t cls = classFor(bytes);
  if (freeCount_[cls] >= kMaxFreePerClass) {
    ::operator delete(p);
    return;
  }
  auto* block = static_cast<FreeBlock*>(p);
  block->next = free_[cls];
  free_[cls] = block;
  ++freeCount_[cls];
  ++stats_.retained;
}

PacketArena::~PacketArena() {
  for (std::size_t cls = 0; cls < kClassCount; ++cls) {
    FreeBlock* block = free_[cls];
    while (block != nullptr) {
      FreeBlock* next = block->next;
      ::operator delete(block);
      block = next;
    }
    free_[cls] = nullptr;
  }
}

}  // namespace msim
