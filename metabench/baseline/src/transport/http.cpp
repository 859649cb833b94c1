#include "transport/http.hpp"

#include <algorithm>

namespace msim {

// ------------------------------------------------------------- HttpServer

HttpServer::HttpServer(Node& node, std::uint16_t port) : server_{node, port} {
  server_.onMessage([this](TlsStreamServer::ConnId id, const Message& m) {
    handle(id, m);
  });
}

void HttpServer::route(std::string pathPrefix, Handler handler) {
  routes_.emplace_back(std::move(pathPrefix), std::move(handler));
  // Longest prefix first.
  std::stable_sort(routes_.begin(), routes_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.size() > b.first.size();
                   });
}

void HttpServer::handle(TlsStreamServer::ConnId id, const Message& m) {
  const std::string_view prefix = httpmsg::kRequestPrefix;
  if (!m.kind.startsWith(prefix)) return;

  HttpRequest req;
  req.path = std::string{m.kind.view().substr(prefix.size())};
  req.body = m.size > ByteSize::bytes(350) ? m.size - ByteSize::bytes(350)
                                           : ByteSize::zero();
  req.actionId = m.actionId;

  const Handler* handler = nullptr;
  for (const auto& [routePrefix, h] : routes_) {
    if (req.path.rfind(routePrefix, 0) == 0) {
      handler = &h;
      break;
    }
  }
  HttpResponse resp;
  if (handler != nullptr) {
    resp = (*handler)(req);
  } else if (defaultHandler_) {
    resp = defaultHandler_(req);
  } else {
    resp.status = 404;
  }
  if (resp.actionId == 0) resp.actionId = req.actionId;
  ++served_;

  Message out;
  out.kind = std::string{httpmsg::kResponsePrefix} + req.path;
  out.size = resp.headerBytes + resp.body;
  out.actionId = resp.actionId;
  out.sequence = m.sequence;
  out.senderId = static_cast<std::uint64_t>(resp.status);
  server_.sendTo(id, std::move(out));
}

// ------------------------------------------------------------- HttpClient

HttpClient::HttpClient(Node& node) : node_{node} {}

HttpClient::Conn& HttpClient::connFor(const Endpoint& server) {
  const std::uint64_t key = endpointKey(server);
  if (std::shared_ptr<Conn>* existing = conns_.find(key)) {
    if (!(*existing)->failed) return **existing;
    conns_.erase(key);
  }

  auto fresh = std::make_shared<Conn>();
  conns_.insert(key, fresh);
  Conn& conn = *fresh;
  conn.stream = std::make_unique<TlsStreamClient>(node_);
  Conn* connPtr = fresh.get();
  conn.stream->onMessage([this, connPtr](const Message& m) {
    if (!m.kind.startsWith(httpmsg::kResponsePrefix)) return;
    if (connPtr->inflight.empty()) return;
    PendingRequest pending = std::move(connPtr->inflight.front());
    connPtr->inflight.pop_front();
    HttpResponse resp;
    resp.status = static_cast<int>(m.senderId);
    resp.body = m.size > ByteSize::bytes(300) ? m.size - ByteSize::bytes(300)
                                              : ByteSize::zero();
    resp.actionId = m.actionId;
    if (pending.handler) {
      pending.handler(resp, node_.sim().now() - pending.sentAt);
    }
  });
  auto failPending = [this, connPtr] {
    connPtr->failed = true;
    // Fail-fast: callers see an error response instead of hanging forever
    // on a dead connection (they typically retry on a fresh one).
    while (!connPtr->inflight.empty()) {
      PendingRequest pending = std::move(connPtr->inflight.front());
      connPtr->inflight.pop_front();
      if (pending.handler) {
        HttpResponse error;
        error.status = 0;
        pending.handler(error, node_.sim().now() - pending.sentAt);
      }
    }
  };
  conn.stream->onClose(failPending);
  conn.stream->connect(server, [failPending](bool ok) {
    if (!ok) failPending();
  });
  return conn;
}

void HttpClient::request(const Endpoint& server, HttpRequest req,
                         ResponseHandler onResponse) {
  Conn& conn = connFor(server);
  conn.inflight.push_back(PendingRequest{std::move(onResponse), node_.sim().now()});
  Message m;
  m.kind = std::string{httpmsg::kRequestPrefix} + req.path;
  m.size = req.headerBytes + req.body;
  m.actionId = req.actionId;
  m.createdAt = node_.sim().now();
  conn.stream->send(std::move(m));
}

bool HttpClient::busy() const {
  bool any = false;
  conns_.forEach([&any](std::uint64_t, const std::shared_ptr<Conn>& conn) {
    if (!conn->failed && !conn->inflight.empty()) any = true;
  });
  return any;
}

Duration HttpClient::maxAckStallAge() const {
  Duration worst = Duration::zero();
  conns_.forEach([&worst](std::uint64_t, const std::shared_ptr<Conn>& conn) {
    if (conn->failed || conn->stream == nullptr) return;
    const Duration age = conn->stream->ackStallAge();
    if (age > worst) worst = age;
  });
  return worst;
}

}  // namespace msim
