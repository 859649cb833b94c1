#pragma once

// A reliable byte-stream transport with Reno congestion control.
//
// This is not a toy: the §8 findings (Fig. 13) hinge on a real TCP competing
// with UDP on a throttled uplink — retransmission timers, cwnd collapse and
// recovery produce the observed spikes and gaps. Implemented:
//   * 3-way handshake, FIN teardown, RST on unexpected segments
//   * cumulative ACKs with out-of-order reassembly ranges
//   * delayed ACK (every 2nd segment or 40 ms), immediate ACK on disorder
//   * Reno: slow start, congestion avoidance, 3-dupACK fast retransmit
//     with fast recovery, RTO with exponential backoff (Jacobson SRTT)
//   * application messages framed by stream offset (sender marks message
//     boundaries; receiver delivers the Message when its last byte arrives)
//
// Windows/sequence numbers count bytes; payload contents are sizes only.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "net/packet.hpp"
#include "transport/mux.hpp"
#include "util/flatmap.hpp"

namespace msim {

/// TCP connection states (simplified lifecycle).
enum class TcpState : std::uint8_t {
  Closed,
  SynSent,
  SynReceived,
  Established,
  FinWait,
  CloseWait,
  Closing,
};

[[nodiscard]] const char* toString(TcpState s);

/// Tunables; defaults approximate a Linux-era stack.
struct TcpConfig {
  std::uint32_t mss = wire::kTcpMss;
  std::uint32_t initialCwndSegments = 10;
  std::uint32_t receiveWindow = 1 << 20;
  Duration minRto = Duration::millis(200);
  Duration maxRto = Duration::seconds(60);
  Duration initialRto = Duration::seconds(1);
  Duration delayedAckTimeout = Duration::millis(40);
  int maxSynRetries = 6;
  int maxDataRetries = 15;
  /// Per-segment bytes added on top of Eth+IP+TCP (TLS record framing).
  std::uint16_t extraPerSegmentOverhead = 0;
};

/// One endpoint of a TCP connection.
class TcpSocket : public std::enable_shared_from_this<TcpSocket> {
 public:
  using ConnectHandler = std::function<void(bool ok)>;
  using MessageHandler = std::function<void(const Message&)>;
  using CloseHandler = std::function<void()>;
  using DeliveredHandler = std::function<void(const Message&)>;

  /// Creates an unconnected socket on `node` (use connect(), or let a
  /// TcpListener construct established sockets for you).
  static std::shared_ptr<TcpSocket> create(Node& node, TcpConfig cfg = {});
  ~TcpSocket();

  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  /// Initiates the handshake. `onConnect(false)` fires after SYN retries
  /// are exhausted.
  void connect(const Endpoint& remote, ConnectHandler onConnect);

  /// Queues an application message for in-order reliable delivery.
  /// Safe before the handshake completes (bytes flow once Established).
  void send(Message message);

  /// Graceful close: FIN after all queued data is sent.
  void close();
  /// Immediate teardown, RST to peer.
  void abort();

  void onMessage(MessageHandler h) { onMessage_ = std::move(h); }
  void onClose(CloseHandler h) { onClose_ = std::move(h); }
  /// Fires when the *sender's own* message has been cumulatively ACKed —
  /// the hook the Worlds client uses to gate UDP on TCP delivery (§8.1).
  void onDelivered(DeliveredHandler h) { onDelivered_ = std::move(h); }

  [[nodiscard]] TcpState state() const { return state_; }
  [[nodiscard]] Endpoint remote() const { return remote_; }
  [[nodiscard]] std::uint16_t localPort() const { return key_.localPort; }
  [[nodiscard]] Node& node() { return mux_.node(); }

  /// Bytes queued or in flight but not yet cumulatively ACKed.
  [[nodiscard]] std::int64_t unackedBytes() const;
  [[nodiscard]] bool hasUnackedData() const { return unackedBytes() > 0; }

  /// How long this connection has had outstanding data without ANY ACK
  /// progress — the delivery-health signal Worlds' client gates on (§8.1).
  /// Zero when nothing is outstanding.
  [[nodiscard]] Duration ackStallAge() const;

  [[nodiscard]] Duration smoothedRtt() const { return srtt_.value_or(Duration::zero()); }
  [[nodiscard]] std::uint32_t cwndBytes() const { return cwnd_; }
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }

  // Internal: called by the mux / listener.
  void deliverSegment(const Packet& p);
  void acceptFrom(const Packet& syn, std::uint16_t localPort);
  /// Used by TcpListener to observe handshake completion.
  void onConnectInternal(ConnectHandler h) { onConnect_ = std::move(h); }
  /// Fires (once) when the connection reaches Closed for any reason; used by
  /// TcpListener to release its ownership of accepted sockets.
  void onReleaseInternal(std::function<void(std::uint64_t)> h) {
    onRelease_ = std::move(h);
  }
  /// Process-unique connection serial (stable identity for registries).
  [[nodiscard]] std::uint64_t serial() const { return serial_; }

 private:
  TcpSocket(Node& node, TcpConfig cfg);

  struct OutMessage {
    Message msg;
    std::uint64_t endOffset;  // stream offset one past the last byte
  };

  // --- segment emission -------------------------------------------------
  void sendSegment(std::uint64_t seq, std::uint32_t len, bool syn, bool fin,
                   bool forceAck = false);
  void sendBareAck();
  void sendRst(const Endpoint& to, std::uint16_t fromPort);
  void trySendData();

  // --- receive path -------------------------------------------------------
  void handleEstablishedSegment(const Packet& p, const TcpHeader& h);
  void processAck(std::uint64_t ackSeq, bool pureAck = true);
  void acceptPayload(std::uint64_t seq, std::uint32_t len);
  void deliverReadyMessages();
  void scheduleDelayedAck();
  void maybeFinishClose();

  // --- timers & congestion control ----------------------------------------
  void cancelRto();
  void armRto();
  void onRtoFire();
  void onRttSample(Duration rtt);
  [[nodiscard]] Duration currentRto() const;
  void enterFastRecovery();

  void toState(TcpState s);
  void registerKey();
  void unregisterKey();
  void failConnect();
  void notifyReleased();

  TransportMux& mux_;
  TcpConfig cfg_;
  TcpState state_{TcpState::Closed};
  TcpConnKey key_;
  Endpoint remote_;
  /// Source address our segments carry. For accepted connections this is
  /// whatever address the client's SYN targeted — essential behind anycast,
  /// where the node's primary (unicast) address would break the client's
  /// connection demux.
  Ipv4Address localAddr_;
  ConnectHandler onConnect_;
  MessageHandler onMessage_;
  CloseHandler onClose_;
  DeliveredHandler onDelivered_;

  // Send side (stream offsets are 64-bit; 32-bit seq on the wire would
  // just wrap — we keep it simple and use the offset directly).
  std::uint64_t sndNxt_{0};   // next new byte to send
  std::uint64_t sndUna_{0};   // oldest unACKed byte
  std::uint64_t sndEnd_{0};   // total bytes queued by the app
  std::deque<OutMessage> outMessages_;
  bool finQueued_{false};
  bool finSent_{false};
  bool finAcked_{false};
  bool finReceived_{false};
  bool closeNotified_{false};

  // Receive side.
  std::uint64_t rcvNxt_{0};
  std::map<std::uint64_t, std::uint64_t> oooRanges_;  // start -> end
  std::map<std::uint64_t, Message> inMessages_;       // endOffset -> message
  int segsSinceAck_{0};
  EventId delayedAckTimer_;
  bool delayedAckArmed_{false};

  // Congestion control (bytes).
  std::uint32_t cwnd_{0};
  std::uint32_t ssthresh_{0x7fffffff};
  int dupAcks_{0};
  bool inFastRecovery_{false};
  std::uint64_t recoverPoint_{0};

  // RTT estimation / RTO.
  std::optional<Duration> srtt_;
  Duration rttvar_{Duration::zero()};
  int backoff_{0};
  EventId rtoTimer_;
  bool rtoArmed_{false};
  std::optional<std::pair<std::uint64_t, TimePoint>> rttProbe_;  // seq end, sent at

  // Time of the last ACK progress (or last transition to idle).
  TimePoint lastAckProgress_;
  int synRetries_{0};
  int dataRetries_{0};
  std::uint64_t retransmits_{0};
  bool keyRegistered_{false};
  std::uint64_t serial_{0};
  std::function<void(std::uint64_t)> onRelease_;
};

/// Passive open: accepts connections on a port.
class TcpListener {
 public:
  using AcceptHandler = std::function<void(std::shared_ptr<TcpSocket>)>;

  TcpListener(Node& node, std::uint16_t port, TcpConfig cfg = {});
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  void onAccept(AcceptHandler h) { onAccept_ = std::move(h); }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  // Internal: called by the mux for SYNs with no matching connection.
  void handleSyn(const Packet& p);

  /// Accepted connections currently owned by the listener (open sockets the
  /// application has not retained are kept alive here until they close).
  [[nodiscard]] std::size_t openConnections() const { return accepted_.size(); }

 private:
  TransportMux& mux_;
  std::uint16_t port_;
  TcpConfig cfg_;
  AcceptHandler onAccept_;
  FlatMap64<std::shared_ptr<TcpSocket>> accepted_;  // serial -> socket
};

}  // namespace msim
