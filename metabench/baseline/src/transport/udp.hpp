#pragma once

// Connectionless datagram sockets.
//
// All five platforms except Hubs deliver their data channel over UDP (§4.1);
// the relay servers and platform clients speak through this API.

#include <cstdint>
#include <functional>
#include <memory>

#include "net/packet.hpp"
#include "transport/mux.hpp"

namespace msim {

/// A bound UDP socket. Destroys cleanly (unbinds) when it goes out of scope.
class UdpSocket {
 public:
  /// Binds to `port` on `node`; 0 picks an ephemeral port.
  UdpSocket(Node& node, std::uint16_t port = 0);
  ~UdpSocket();

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  [[nodiscard]] std::uint16_t localPort() const { return port_; }
  [[nodiscard]] Node& node() { return mux_.node(); }

  /// Sends a datagram. Payloads above the MTU are fragmented; the message
  /// descriptor rides on the final fragment (the receiver sees the app
  /// message once it is complete).
  ///
  /// `extraOverhead` adds per-datagram bytes on top of Eth+IP+UDP (e.g.
  /// DTLS-SRTP framing for WebRTC flows).
  void sendTo(const Endpoint& dst, ByteSize payload,
              std::shared_ptr<const Message> message = nullptr,
              std::uint16_t extraOverhead = 0);

  using RecvHandler = std::function<void(const Packet&, const Endpoint& from)>;
  /// Invoked once per arriving datagram (per fragment for fragmented sends).
  void onReceive(RecvHandler handler) { recv_ = std::move(handler); }

  /// Datagram payload limit before fragmentation.
  static constexpr std::int64_t kMtuPayload = 1472;

  // Internal: called by the mux.
  void deliver(const Packet& p);

 private:
  TransportMux& mux_;
  std::uint16_t port_;
  RecvHandler recv_;
};

}  // namespace msim
