#include "transport/mux.hpp"

#include "transport/tcp.hpp"
#include "transport/udp.hpp"

namespace msim {

TransportMux::TransportMux(Node& node) : node_{node} {
  node_.setLocalHandler([this](const Packet& p) { dispatch(p); });
}

TransportMux& TransportMux::of(Node& node) {
  if (auto existing = node.transportAttachment()) {
    return *static_cast<TransportMux*>(existing.get());
  }
  auto mux = std::make_shared<TransportMux>(node);
  TransportMux& ref = *mux;
  node.setTransportAttachment(std::move(mux));
  return ref;
}

std::uint16_t TransportMux::allocEphemeralPort() {
  for (int attempts = 0; attempts < 16384; ++attempts) {
    const std::uint16_t candidate = nextEphemeral_;
    nextEphemeral_ = nextEphemeral_ >= 65535 ? 49152 : nextEphemeral_ + 1;
    if (!udp_.contains(candidate) && !tcpListeners_.contains(candidate)) {
      return candidate;
    }
  }
  return 0;  // exhausted; callers treat 0 as failure
}

void TransportMux::bindUdp(std::uint16_t port, UdpSocket& socket) {
  udp_[port] = &socket;
}

void TransportMux::unbindUdp(std::uint16_t port) { udp_.erase(port); }

void TransportMux::bindTcpConnection(const TcpConnKey& key, TcpSocket& socket) {
  tcpConns_[key] = &socket;
}

void TransportMux::unbindTcpConnection(const TcpConnKey& key) {
  tcpConns_.erase(key);
}

void TransportMux::bindTcpListener(std::uint16_t port, TcpListener& listener) {
  tcpListeners_[port] = &listener;
}

void TransportMux::unbindTcpListener(std::uint16_t port) {
  tcpListeners_.erase(port);
}

void TransportMux::dispatch(const Packet& p) {
  switch (p.proto) {
    case IpProto::Udp: {
      if (UdpSocket* const* sock = udp_.find(p.dstPort)) {
        (*sock)->deliver(p);
      } else {
        // Port unreachable — this is what terminates a UDP traceroute.
        Packet icmp;
        icmp.src = p.dst;
        icmp.dst = p.src;
        icmp.proto = IpProto::Icmp;
        icmp.overheadBytes = wire::kEthIpIcmp;
        icmp.payloadBytes = ByteSize::bytes(28);
        IcmpHeader hdr;
        hdr.type = IcmpType::DestUnreachable;
        hdr.originalDst = p.dst;
        hdr.originalDstPort = p.dstPort;
        icmp.l4 = hdr;
        node_.sendFromLocal(std::move(icmp));
      }
      return;
    }
    case IpProto::Tcp: {
      const TcpConnKey key{p.dstPort, Endpoint{p.src, p.srcPort}};
      if (const auto it = tcpConns_.find(key); it != tcpConns_.end()) {
        it->second->deliverSegment(p);
        return;
      }
      const TcpHeader* h = p.tcp();
      if (h == nullptr) return;
      if (h->syn && !h->ackFlag) {
        if (TcpListener* const* listener = tcpListeners_.find(p.dstPort)) {
          (*listener)->handleSyn(p);
          return;
        }
      }
      if (!h->rst) {
        // No matching socket: answer with RST (this is what lets TCP pings
        // measure RTT against hosts that block ICMP, as in §4.2).
        Packet rst;
        rst.src = p.dst;
        rst.dst = p.src;
        rst.srcPort = p.dstPort;
        rst.dstPort = p.srcPort;
        rst.proto = IpProto::Tcp;
        rst.overheadBytes = wire::kEthIpTcp;
        TcpHeader hdr;
        hdr.rst = true;
        hdr.ackFlag = true;
        hdr.ack = h->seq + (h->syn ? 1 : 0) + p.payloadBytes.toBytes();
        rst.l4 = hdr;
        node_.sendFromLocal(std::move(rst));
      }
      return;
    }
    case IpProto::Icmp:
      // ICMP is handled by the node itself.
      return;
  }
}

}  // namespace msim
