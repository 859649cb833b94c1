#pragma once

// Per-node transport demultiplexer.
//
// Installs itself as the node's local-delivery handler and dispatches
// datagrams/segments to bound sockets: UDP by destination port, TCP by
// exact 4-tuple first, then by listening port (SYNs).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "util/flatmap.hpp"

namespace msim {

class UdpSocket;
class TcpSocket;
class TcpListener;

/// Key identifying a TCP connection from the local node's perspective.
struct TcpConnKey {
  std::uint16_t localPort{0};
  Endpoint remote;

  friend constexpr auto operator<=>(const TcpConnKey&, const TcpConnKey&) = default;
};

/// One per node; created on demand via TransportMux::of().
class TransportMux {
 public:
  explicit TransportMux(Node& node);

  TransportMux(const TransportMux&) = delete;
  TransportMux& operator=(const TransportMux&) = delete;

  /// Returns the node's mux, creating and installing it on first use.
  static TransportMux& of(Node& node);

  [[nodiscard]] Node& node() { return node_; }

  /// Allocates an unused ephemeral port (49152+).
  [[nodiscard]] std::uint16_t allocEphemeralPort();

  void bindUdp(std::uint16_t port, UdpSocket& socket);
  void unbindUdp(std::uint16_t port);

  void bindTcpConnection(const TcpConnKey& key, TcpSocket& socket);
  void unbindTcpConnection(const TcpConnKey& key);
  void bindTcpListener(std::uint16_t port, TcpListener& listener);
  void unbindTcpListener(std::uint16_t port);

  [[nodiscard]] bool udpPortBound(std::uint16_t port) const {
    return udp_.contains(port);
  }

 private:
  void dispatch(const Packet& p);

  Node& node_;
  std::uint16_t nextEphemeral_{49152};
  FlatMap64<UdpSocket*> udp_;              // port -> socket
  std::map<TcpConnKey, TcpSocket*> tcpConns_;
  FlatMap64<TcpListener*> tcpListeners_;   // port -> listener
};

}  // namespace msim
