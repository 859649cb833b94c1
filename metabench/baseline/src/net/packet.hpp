#pragma once

// The packet model.
//
// Packets carry real L3/L4 metadata (so routing, TTL/traceroute, TCP and the
// AP-side capture all behave like the real thing) but app payloads are
// described by size plus a typed Message tag instead of bytes. The paper
// could not see inside the platforms' encrypted payloads either; our capture
// agent only reads the on-wire metadata, while ground-truth analyses may
// inspect the Message tags.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "net/address.hpp"
#include "net/packetpool.hpp"
#include "util/intern.hpp"
#include "util/rate.hpp"
#include "util/time.hpp"

namespace msim {

enum class IpProto : std::uint8_t { Udp, Tcp, Icmp };

[[nodiscard]] const char* toString(IpProto p);

// Sequence/ack fields are 64-bit stream offsets: a simulator gains nothing
// from modelling 32-bit wraparound, and per-connection transfers here stay
// far below 4 GB anyway. The wire size is still accounted as 20 bytes.
struct TcpHeader {
  std::uint64_t seq{0};
  std::uint64_t ack{0};
  bool syn{false};
  bool ackFlag{false};
  bool fin{false};
  bool rst{false};
  std::uint32_t window{65535};
};

enum class IcmpType : std::uint8_t { EchoRequest, EchoReply, TimeExceeded, DestUnreachable };

struct IcmpHeader {
  IcmpType type{IcmpType::EchoRequest};
  std::uint16_t ident{0};
  std::uint16_t seq{0};
  /// For TimeExceeded: the destination of the expired packet, so traceroute
  /// can match replies to probes (mirrors the quoted inner header).
  Ipv4Address originalDst;
  std::uint16_t originalDstPort{0};
};

/// Application-level message descriptor attached to datagrams (and to the
/// sender side of TCP streams). `kind` identifies the app semantic
/// ("avatar-update", "voice", "client-report", ...) as an interned symbol:
/// copying a Message is allocation-free and kind dispatch is a pointer
/// compare. `actionId` carries the latency-probe marker (a user-visible
/// action), 0 if none.
struct Message {
  MsgKind kind;
  ByteSize size;
  std::uint64_t senderId{0};
  std::uint64_t sequence{0};
  std::uint64_t actionId{0};
  TimePoint createdAt;
  /// Transport hint: for TCP, the stream offset one past this message's last
  /// byte (set by the sending socket so the receiver can deliver in order).
  std::uint64_t streamEndOffset{0};

  /// Payload-content hint for avatar pose updates (what the bytes would
  /// decode to): position plus facing. Lets servers apply viewport filtering
  /// against the pose as *transmitted* — so staleness under latency is real.
  struct PoseHint {
    double x{0.0};
    double y{0.0};
    double yawDeg{0.0};
  };
  std::optional<PoseHint> pose;
};

/// A simulated packet. Cheap to copy: metadata plus a shared payload ref.
struct Packet {
  std::uint64_t uid{0};
  Ipv4Address src;
  Ipv4Address dst;
  std::uint16_t srcPort{0};
  std::uint16_t dstPort{0};
  IpProto proto{IpProto::Udp};
  std::uint8_t ttl{64};
  std::variant<std::monostate, TcpHeader, IcmpHeader> l4;

  /// Application bytes carried by this packet (segment/datagram payload).
  ByteSize payloadBytes;
  /// L2+L3+L4 (+record-layer) overhead included in the wire size.
  std::uint16_t overheadBytes{0};
  /// App messages completed by this packet: for UDP the datagram's message
  /// (on its final fragment); for TCP every message whose last byte lies in
  /// this segment (several small writes can share one segment). The buffer
  /// comes from the thread-local packet arena, so steady-state sends recycle
  /// it instead of allocating (see net/packetpool.hpp).
  using MessageRefs =
      std::vector<std::shared_ptr<const Message>,
                  PacketArenaAllocator<std::shared_ptr<const Message>>>;
  MessageRefs messages;

  [[nodiscard]] const Message* primaryMessage() const {
    return messages.empty() ? nullptr : messages.front().get();
  }

  /// Stamped when first transmitted onto a link.
  TimePoint firstSentAt;

  [[nodiscard]] ByteSize wireSize() const {
    return payloadBytes + ByteSize::bytes(overheadBytes);
  }
  [[nodiscard]] const TcpHeader* tcp() const { return std::get_if<TcpHeader>(&l4); }
  [[nodiscard]] TcpHeader* tcp() { return std::get_if<TcpHeader>(&l4); }
  [[nodiscard]] const IcmpHeader* icmp() const { return std::get_if<IcmpHeader>(&l4); }
};

/// Typical per-packet overheads (bytes), used by the transport layer.
namespace wire {
inline constexpr std::uint16_t kEthIpUdp = 14 + 20 + 8;          // 42
inline constexpr std::uint16_t kEthIpTcp = 14 + 20 + 20;         // 54
inline constexpr std::uint16_t kEthIpIcmp = 14 + 20 + 8;         // 42
inline constexpr std::uint16_t kTlsRecord = 29;                  // TLS 1.3 record
inline constexpr std::uint16_t kDtlsSrtp = 16 + 12;              // DTLS-SRTP + RTP
inline constexpr std::uint32_t kTcpMss = 1460;
}  // namespace wire

}  // namespace msim
