#pragma once

// HTTP/1.1-style request/response over the TLS stream model.
//
// All five platforms use HTTPS for their control channels (§4.1): menu
// operations, periodic client reports, clock sync, and content downloads.
// Requests and responses are size-described messages on a persistent
// TLS stream; responses match requests FIFO per connection, as HTTP/1.1
// pipelining would.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "transport/tls.hpp"
#include "util/flatmap.hpp"

namespace msim {

struct HttpRequest {
  std::string path;
  ByteSize body = ByteSize::zero();
  /// Latency-probe marker propagated through to the response.
  std::uint64_t actionId{0};
  /// Typical serialized header block.
  ByteSize headerBytes = ByteSize::bytes(350);
};

struct HttpResponse {
  int status{200};
  ByteSize body = ByteSize::zero();
  ByteSize headerBytes = ByteSize::bytes(300);
  std::uint64_t actionId{0};
};

/// Server: routes by longest matching path prefix.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(Node& node, std::uint16_t port = 443);

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  void route(std::string pathPrefix, Handler handler);
  void setDefaultHandler(Handler handler) { defaultHandler_ = std::move(handler); }
  [[nodiscard]] std::uint64_t requestsServed() const { return served_; }
  [[nodiscard]] Node& node() { return server_.node(); }

 private:
  void handle(TlsStreamServer::ConnId id, const Message& m);

  TlsStreamServer server_;
  std::vector<std::pair<std::string, Handler>> routes_;
  Handler defaultHandler_;
  std::uint64_t served_{0};
};

/// Client: persistent connection per server endpoint, FIFO response matching.
class HttpClient {
 public:
  /// `elapsed` is request-sent to response-complete.
  using ResponseHandler = std::function<void(const HttpResponse&, Duration elapsed)>;

  explicit HttpClient(Node& node);

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  void request(const Endpoint& server, HttpRequest req,
               ResponseHandler onResponse = nullptr);

  [[nodiscard]] Node& node() { return node_; }
  /// True while any request to any server is still awaiting its response —
  /// the hook the Worlds client uses to gate UDP on TCP delivery (§8.1).
  [[nodiscard]] bool busy() const;

  /// Longest time any live connection has had un-ACKed outbound data —
  /// the uplink-delivery-health signal behind Worlds' session break (§8.1).
  [[nodiscard]] Duration maxAckStallAge() const;

 private:
  struct PendingRequest {
    ResponseHandler handler;
    TimePoint sentAt;
  };
  struct Conn {
    std::unique_ptr<TlsStreamClient> stream;
    std::deque<PendingRequest> inflight;
    bool failed{false};
  };

  Conn& connFor(const Endpoint& server);

  /// Endpoints pack losslessly into 64 bits (IPv4 address + port), which
  /// keys the flat map below without hashing a struct.
  [[nodiscard]] static std::uint64_t endpointKey(const Endpoint& e) {
    return (std::uint64_t{e.addr.value()} << 16) | e.port;
  }

  Node& node_;
  // Conns live behind a pointer so in-flight completion lambdas survive the
  // map rehashing underneath them.
  FlatMap64<std::shared_ptr<Conn>> conns_;
};

/// Message kind prefixes used on the wire ("inside the encryption"; the
/// capture layer never reads these, only ground-truth analyses do).
namespace httpmsg {
inline constexpr const char* kRequestPrefix = "http-req:";
inline constexpr const char* kResponsePrefix = "http-resp:";
}  // namespace httpmsg

}  // namespace msim
