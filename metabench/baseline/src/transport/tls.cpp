#include "transport/tls.hpp"

namespace msim {

namespace {

TcpConfig tlsTcpConfig() {
  TcpConfig cfg;
  cfg.extraPerSegmentOverhead = wire::kTlsRecord;
  return cfg;
}

Message handshakeMessage(MsgKind kind, ByteSize size) {
  Message m;
  m.kind = kind;
  m.size = size;
  return m;
}

}  // namespace

// --------------------------------------------------------- TlsStreamClient

TlsStreamClient::TlsStreamClient(Node& node, TlsProfile profile)
    : node_{node}, profile_{profile} {}

TlsStreamClient::~TlsStreamClient() {
  if (sock_) {
    sock_->onMessage(nullptr);
    sock_->onClose(nullptr);
  }
}

void TlsStreamClient::connect(const Endpoint& server, ReadyHandler onReady) {
  onReady_ = std::move(onReady);
  sock_ = TcpSocket::create(node_, tlsTcpConfig());
  sock_->onMessage([this](const Message& m) {
    if (!ready_ && m.kind == tlsmsg::kServerFlight) {
      sock_->send(handshakeMessage(tlsmsg::kClientFinished, profile_.clientFinished));
      ready_ = true;
      for (auto& queued : pending_) sock_->send(std::move(queued));
      pending_.clear();
      if (onReady_) onReady_(true);
      return;
    }
    if (onMessage_) onMessage_(m);
  });
  sock_->onClose([this] {
    ready_ = false;
    if (onClose_) onClose_();
  });
  sock_->connect(server, [this](bool ok) {
    if (!ok) {
      if (onReady_) onReady_(false);
      return;
    }
    sock_->send(handshakeMessage(tlsmsg::kClientHello, profile_.clientHello));
  });
}

void TlsStreamClient::send(Message m) {
  if (!ready_) {
    pending_.push_back(std::move(m));
    return;
  }
  sock_->send(std::move(m));
}

void TlsStreamClient::close() {
  if (sock_) sock_->close();
}

// --------------------------------------------------------- TlsStreamServer

TlsStreamServer::TlsStreamServer(Node& node, std::uint16_t port, TlsProfile profile)
    : node_{node}, profile_{profile}, listener_{node, port, tlsTcpConfig()} {
  listener_.onAccept([this](const std::shared_ptr<TcpSocket>& sock) {
    handleAccepted(sock);
  });
}

void TlsStreamServer::handleAccepted(const std::shared_ptr<TcpSocket>& sock) {
  const ConnId id = nextId_++;
  conns_[id] = Conn{sock, false};
  sock->onMessage([this, id](const Message& m) {
    Conn* conn = conns_.find(id);
    if (conn == nullptr) return;
    if (!conn->handshakeDone) {
      if (m.kind == tlsmsg::kClientHello) {
        conn->sock->send(handshakeMessage(tlsmsg::kServerFlight, profile_.serverFlight));
        return;
      }
      if (m.kind == tlsmsg::kClientFinished) {
        conn->handshakeDone = true;
        if (onConnected_) onConnected_(id);
        return;
      }
      return;  // unexpected pre-handshake data
    }
    if (onMessage_) onMessage_(id, m);
  });
  sock->onClose([this, id] {
    if (conns_.erase(id) && onDisconnected_) onDisconnected_(id);
  });
}

void TlsStreamServer::sendTo(ConnId id, Message m) {
  if (Conn* conn = conns_.find(id)) conn->sock->send(std::move(m));
}

void TlsStreamServer::closeConn(ConnId id) {
  if (Conn* conn = conns_.find(id)) conn->sock->close();
}

Endpoint TlsStreamServer::peerOf(ConnId id) const {
  const Conn* conn = conns_.find(id);
  return conn != nullptr ? conn->sock->remote() : Endpoint{};
}

}  // namespace msim
