#include "transport/udp.hpp"

namespace msim {

UdpSocket::UdpSocket(Node& node, std::uint16_t port)
    : mux_{TransportMux::of(node)}, port_{port} {
  if (port_ == 0) port_ = mux_.allocEphemeralPort();
  mux_.bindUdp(port_, *this);
}

UdpSocket::~UdpSocket() { mux_.unbindUdp(port_); }

void UdpSocket::sendTo(const Endpoint& dst, ByteSize payload,
                       std::shared_ptr<const Message> message,
                       std::uint16_t extraOverhead) {
  std::int64_t remaining = payload.toBytes();
  if (remaining < 0) remaining = 0;
  do {
    const std::int64_t chunk = remaining > kMtuPayload ? kMtuPayload : remaining;
    remaining -= chunk;
    Packet p;
    p.dst = dst.addr;
    p.dstPort = dst.port;
    p.srcPort = port_;
    p.proto = IpProto::Udp;
    p.overheadBytes = static_cast<std::uint16_t>(wire::kEthIpUdp + extraOverhead);
    p.payloadBytes = ByteSize::bytes(chunk);
    // detlint:allow(hotpath-alloc) attaches the already-shared message to the
    // final fragment; the vector lives only for the packet's wire flight.
    if (remaining == 0 && message != nullptr) p.messages.push_back(message);
    mux_.node().sendFromLocal(std::move(p));
  } while (remaining > 0);
}

void UdpSocket::deliver(const Packet& p) {
  if (recv_) recv_(p, Endpoint{p.src, p.srcPort});
}

}  // namespace msim
