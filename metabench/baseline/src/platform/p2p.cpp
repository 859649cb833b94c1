#include "platform/p2p.hpp"

namespace msim {

P2PClient::P2PClient(HeadsetDevice& headset, std::uint64_t userId,
                     AvatarSpec avatar)
    : headset_{headset},
      userId_{userId},
      codec_{std::move(avatar), userId},
      socket_{headset.node()} {
  socket_.onReceive([this](const Packet& p, const Endpoint&) {
    const Message* m = p.primaryMessage();
    if (m != nullptr && m->kind == avatarmsg::kPoseUpdate) ++updatesReceived_;
  });
}

void P2PClient::connectMesh(const std::vector<P2PClient*>& clients) {
  for (P2PClient* a : clients) {
    for (P2PClient* b : clients) {
      if (a != b) a->addPeer(b->userId_, b->endpoint());
    }
  }
}

void P2PClient::start() {
  updateTask_ = std::make_unique<PeriodicTask>(
      headset_.sim(), Duration::seconds(1.0 / codec_.spec().updateRateHz),
      [this] { updateTick(); });
}

void P2PClient::stop() { updateTask_.reset(); }

void P2PClient::updateTick() {
  // The replication burden the relay used to carry now sits on the sender:
  // one copy of every update per peer.
  auto& rng = headset_.sim().rng();
  const auto m = codec_.encodePose(motion_.pose(), headset_.sim().now(), rng);
  for (const auto& [peerId, ep] : peers_) {
    (void)peerId;
    socket_.sendTo(ep, m->size, m);
  }
}

}  // namespace msim
