#include "net/packetfifo.hpp"

namespace msim {

PacketChunkPool::Chunk* PacketChunkPool::acquire() {
  if (free_ != nullptr) {
    Chunk* c = free_;
    free_ = c->next;
    c->next = nullptr;
    return c;
  }
  // detlint:allow(hotpath-alloc) chunk growth only at a new network-wide
  // high-water mark of waiting packets; recycled through free_ afterwards.
  chunks_.push_back(std::make_unique<Chunk>());
  return chunks_.back().get();
}

PacketFifo::~PacketFifo() {
  while (!empty()) (void)pop();
}

}  // namespace msim
