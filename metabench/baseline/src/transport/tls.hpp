#pragma once

// TLS 1.3 overhead model and message-oriented secure streams.
//
// We do not encrypt anything (the paper could not decrypt anything); we model
// what TLS costs on the wire: a 1-RTT handshake exchanging realistic flight
// sizes, and per-record framing overhead on every data segment. Platforms
// use TlsStreamClient/Server for persistent HTTPS channels (Hubs transmits
// even avatar data this way, §4.1), and HttpClient/HttpServer for
// request/response control traffic.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "transport/tcp.hpp"
#include "util/flatmap.hpp"

namespace msim {

/// Wire-cost parameters of the TLS model.
struct TlsProfile {
  ByteSize clientHello = ByteSize::bytes(517);
  ByteSize serverFlight = ByteSize::bytes(4100);  // cert chain + finished
  ByteSize clientFinished = ByteSize::bytes(80);
  std::uint16_t recordOverhead = wire::kTlsRecord;
};

/// Message kinds used by the handshake.
namespace tlsmsg {
inline const MsgKind kClientHello{"tls:client-hello"};
inline const MsgKind kServerFlight{"tls:server-flight"};
inline const MsgKind kClientFinished{"tls:client-finished"};
}  // namespace tlsmsg

/// Client side of a persistent TLS-over-TCP message stream.
class TlsStreamClient {
 public:
  using ReadyHandler = std::function<void(bool ok)>;
  using MessageHandler = std::function<void(const Message&)>;
  using CloseHandler = std::function<void()>;

  TlsStreamClient(Node& node, TlsProfile profile = {});
  ~TlsStreamClient();

  TlsStreamClient(const TlsStreamClient&) = delete;
  TlsStreamClient& operator=(const TlsStreamClient&) = delete;

  /// TCP connect + TLS handshake; `onReady(true)` once application data may
  /// flow. Messages sent earlier are queued.
  void connect(const Endpoint& server, ReadyHandler onReady);
  void send(Message m);
  void onMessage(MessageHandler h) { onMessage_ = std::move(h); }
  void onClose(CloseHandler h) { onClose_ = std::move(h); }
  void close();

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] Node& node() { return node_; }
  /// Underlying connection (for delivery gating / diagnostics).
  [[nodiscard]] const std::shared_ptr<TcpSocket>& socket() const { return sock_; }
  /// Delivery health: how long sends have gone without ACK progress.
  [[nodiscard]] Duration ackStallAge() const {
    return sock_ != nullptr ? sock_->ackStallAge() : Duration::zero();
  }

 private:
  Node& node_;
  TlsProfile profile_;
  std::shared_ptr<TcpSocket> sock_;
  bool ready_{false};
  std::vector<Message> pending_;
  ReadyHandler onReady_;
  MessageHandler onMessage_;
  CloseHandler onClose_;
};

/// Server side: accepts TLS streams and exposes per-connection handles.
class TlsStreamServer {
 public:
  /// Opaque connection id, stable for the connection's lifetime.
  using ConnId = std::uint64_t;
  using ConnHandler = std::function<void(ConnId)>;
  using MessageHandler = std::function<void(ConnId, const Message&)>;

  TlsStreamServer(Node& node, std::uint16_t port, TlsProfile profile = {});

  TlsStreamServer(const TlsStreamServer&) = delete;
  TlsStreamServer& operator=(const TlsStreamServer&) = delete;

  void onConnected(ConnHandler h) { onConnected_ = std::move(h); }
  void onDisconnected(ConnHandler h) { onDisconnected_ = std::move(h); }
  void onMessage(MessageHandler h) { onMessage_ = std::move(h); }

  void sendTo(ConnId id, Message m);
  void closeConn(ConnId id);
  [[nodiscard]] std::size_t connectionCount() const { return conns_.size(); }
  [[nodiscard]] Endpoint peerOf(ConnId id) const;
  [[nodiscard]] Node& node() { return node_; }

 private:
  struct Conn {
    std::shared_ptr<TcpSocket> sock;
    bool handshakeDone{false};
  };

  void handleAccepted(const std::shared_ptr<TcpSocket>& sock);

  Node& node_;
  TlsProfile profile_;
  TcpListener listener_;
  ConnHandler onConnected_;
  ConnHandler onDisconnected_;
  MessageHandler onMessage_;
  std::uint64_t nextId_{1};
  FlatMap64<Conn> conns_;  // ConnId -> Conn, deterministic iteration
};

}  // namespace msim
