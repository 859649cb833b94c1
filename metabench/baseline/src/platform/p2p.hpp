#pragma once

// Peer-to-peer avatar exchange — the other direction the paper discusses
// (Implications 3, §6.2): drop the relay and let clients send their avatar
// data straight to every peer. The server is relieved, but each client's
// *uplink* now scales with the event size while the downlink still does —
// the ablation bench quantifies exactly that trade.

#include <map>
#include <memory>
#include <vector>

#include "avatar/codec.hpp"
#include "client/headset.hpp"
#include "transport/udp.hpp"

namespace msim {

/// A mesh peer: sends its avatar stream to every other peer directly.
class P2PClient {
 public:
  P2PClient(HeadsetDevice& headset, std::uint64_t userId, AvatarSpec avatar);

  P2PClient(const P2PClient&) = delete;
  P2PClient& operator=(const P2PClient&) = delete;

  [[nodiscard]] Endpoint endpoint() const {
    return Endpoint{headset_.node().primaryAddress(), socket_.localPort()};
  }

  /// Full-mesh wiring: every client learns every other's endpoint.
  static void connectMesh(const std::vector<P2PClient*>& clients);

  void start();
  void stop();

  [[nodiscard]] std::uint64_t updatesReceived() const { return updatesReceived_; }
  [[nodiscard]] std::size_t peerCount() const { return peers_.size(); }
  [[nodiscard]] HeadsetDevice& headset() { return headset_; }

 private:
  void addPeer(std::uint64_t userId, const Endpoint& ep) { peers_[userId] = ep; }
  void updateTick();

  HeadsetDevice& headset_;
  std::uint64_t userId_;
  AvatarUpdateCodec codec_;
  UdpSocket socket_;
  std::map<std::uint64_t, Endpoint> peers_;
  MotionModel motion_;
  std::unique_ptr<PeriodicTask> updateTask_;
  std::uint64_t updatesReceived_{0};
};

}  // namespace msim
