#include "platform/rtp_relay.hpp"

namespace msim {

RtpRelay::RtpRelay(Node& node, std::uint16_t port) : socket_{node, port} {
  socket_.onReceive([this](const Packet& p, const Endpoint& from) {
    onDatagram(p, from);
  });
  sweepTask_ = std::make_unique<PeriodicTask>(node.sim(), Duration::seconds(5),
                                              [this] { sweep(); });
}

void RtpRelay::onDatagram(const Packet& p, const Endpoint& from) {
  const Message* m = p.primaryMessage();
  if (m == nullptr) return;
  auto& sim = socket_.node().sim();
  participants_[from] = sim.now();

  if (m->kind == rtpmsg::kSenderReport) {
    // RTCP: answer immediately so the sender can compute RTT.
    auto rr = std::make_shared<Message>();
    rr->kind = rtpmsg::kReceiverReport;
    rr->size = ByteSize::bytes(32);
    rr->sequence = m->sequence;
    const ByteSize size = rr->size;
    socket_.sendTo(from, size, std::move(rr), wire::kDtlsSrtp);
    return;
  }
  if (m->kind == rtpmsg::kReceiverReport) return;

  // Media: fan out to everyone else (the SFU behaviour the paper describes).
  for (const auto& [peer, lastHeard] : participants_) {
    (void)lastHeard;
    if (peer == from) continue;
    auto copy = std::make_shared<Message>(*m);
    const ByteSize size = copy->size;
    socket_.sendTo(peer, size, std::move(copy), wire::kDtlsSrtp);
    ++framesForwarded_;
  }
}

void RtpRelay::sweep() {
  const TimePoint now = socket_.node().sim().now();
  for (auto it = participants_.begin(); it != participants_.end();) {
    if (now - it->second > timeout_) {
      it = participants_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace msim
