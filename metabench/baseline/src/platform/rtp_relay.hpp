#pragma once

// The WebRTC SFU voice path for Hubs (§4.1): "a central server is still
// used to forward data between users" even for WebRTC media. This relay
// answers RTCP sender reports (so clients can measure RTT the way the paper
// did via chrome://webrtc-internals) and fans every media frame out to all
// other registered participants.

#include <map>
#include <memory>

#include "transport/rtp.hpp"
#include "transport/udp.hpp"

namespace msim {

/// Selective forwarding unit for voice frames.
class RtpRelay {
 public:
  RtpRelay(Node& node, std::uint16_t port);

  RtpRelay(const RtpRelay&) = delete;
  RtpRelay& operator=(const RtpRelay&) = delete;

  [[nodiscard]] std::size_t participantCount() const { return participants_.size(); }
  [[nodiscard]] std::uint64_t framesForwarded() const { return framesForwarded_; }

  /// Participants silent for this long are forgotten.
  void setParticipantTimeout(Duration timeout) { timeout_ = timeout; }

 private:
  void onDatagram(const Packet& p, const Endpoint& from);
  void sweep();

  UdpSocket socket_;
  std::map<Endpoint, TimePoint> participants_;  // endpoint -> last heard
  std::unique_ptr<PeriodicTask> sweepTask_;
  Duration timeout_ = Duration::seconds(15);
  std::uint64_t framesForwarded_{0};
};

}  // namespace msim
