#pragma once

// RTP/RTCP over UDP, the WebRTC-style media path Mozilla Hubs uses for
// voice (§4.1). RTCP sender/receiver reports provide the RTT estimate the
// paper read out of chrome://webrtc-internals (RTCIceCandidatePairStats).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "transport/udp.hpp"

namespace msim {

/// A bidirectional RTP session with periodic RTCP reports.
class RtpSession {
 public:
  explicit RtpSession(Node& node, std::uint16_t localPort = 0);

  RtpSession(const RtpSession&) = delete;
  RtpSession& operator=(const RtpSession&) = delete;

  void setRemote(const Endpoint& remote) { remote_ = remote; }
  [[nodiscard]] std::uint16_t localPort() const { return socket_.localPort(); }
  [[nodiscard]] Node& node() { return socket_.node(); }

  /// Sends one media frame (fragmented above the MTU, DTLS-SRTP overhead).
  void sendFrame(ByteSize size, std::shared_ptr<const Message> message = nullptr);

  using FrameHandler = std::function<void(const Packet&, const Endpoint& from)>;
  void onFrame(FrameHandler h) { onFrame_ = std::move(h); }

  /// Starts periodic RTCP SR emission (default once per second).
  void startRtcp(Duration interval = Duration::seconds(1));
  void stopRtcp();

  /// Most recent RTCP-derived RTT, if any report round-trip completed.
  [[nodiscard]] std::optional<Duration> lastRtt() const { return lastRtt_; }

  [[nodiscard]] std::uint64_t framesSent() const { return framesSent_; }
  [[nodiscard]] std::uint64_t framesReceived() const { return framesReceived_; }

 private:
  void handleDatagram(const Packet& p, const Endpoint& from);
  void sendSenderReport();

  UdpSocket socket_;
  Endpoint remote_;
  FrameHandler onFrame_;
  std::unique_ptr<PeriodicTask> rtcpTask_;
  std::uint64_t nextSeq_{1};
  std::uint64_t nextSrId_{1};
  std::map<std::uint64_t, TimePoint> outstandingSr_;
  std::optional<Duration> lastRtt_;
  std::uint64_t framesSent_{0};
  std::uint64_t framesReceived_{0};
};

namespace rtpmsg {
inline const MsgKind kFrame{"rtp:frame"};
inline const MsgKind kSenderReport{"rtcp:sr"};
inline const MsgKind kReceiverReport{"rtcp:rr"};
}  // namespace rtpmsg

}  // namespace msim
