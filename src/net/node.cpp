#include "net/node.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <utility>

namespace msim {

std::uint64_t nextPacketUid() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// ---------------------------------------------------------------- NetDevice

NetDevice::NetDevice(Node& owner, PacketChunkPool& chunks, std::string name)
    : owner_{owner}, name_{std::move(name)}, queue_{chunks}, inFlight_{chunks} {}

void NetDevice::send(Packet p) {
  if (p.firstSentAt == TimePoint::epoch() && owner_.sim().now() > TimePoint::epoch()) {
    p.firstSentAt = owner_.sim().now();
  }
  auto& sim = owner_.sim();
  const auto verdict =
      netem_.apply(sim.now(), p.wireSize(), sim.rng(), p.proto == IpProto::Tcp);
  if (verdict.drop) return;
  if (verdict.holdFor.isZero()) {
    enqueueForTransmit(std::move(p));
  } else {
    sim.scheduleAfter(verdict.holdFor,
                      [this, p = std::move(p)]() mutable { enqueueForTransmit(std::move(p)); });
  }
}

void NetDevice::enqueueForTransmit(Packet p) {
  auto& sim = owner_.sim();
  if (queue_.empty() && sim.now() >= busyUntil_) {
    startTransmit(std::move(p));
    return;
  }
  if (queuedBytes_ + p.wireSize() > cfg_.queueLimit && !queue_.empty()) {
    ++queueDrops_;
    return;
  }
  queuedBytes_ += p.wireSize();
  queue_.push(std::move(p));
  if (queue_.size() == 1) sim.schedule(busyUntil_, [this] { onWake(); });
}

void NetDevice::onWake() {
  assert(owner_.sim().now() == busyUntil_);
  Packet p = queue_.pop();
  queuedBytes_ -= p.wireSize();
  // Decided before the egress taps run: a tap that sends on this device
  // re-arms the wake itself when it finds the queue empty.
  const bool more = !queue_.empty();
  startTransmit(std::move(p));
  if (more) owner_.sim().schedule(busyUntil_, [this] { onWake(); });
}

void NetDevice::startTransmit(Packet p) {
  auto& sim = owner_.sim();
  busyUntil_ = sim.now() + cfg_.rate.transmissionTime(p.wireSize());
  notifyTaps(p, TapDir::Egress);
  if (peer_ == nullptr) return;
  const TimePoint arrival = busyUntil_ + cfg_.delay;
  // Serialized transmissions over a fixed rate and delay cannot overtake
  // each other: the FIFO pop in onArrival depends on it.
  assert(arrival >= lastArrival_);
  lastArrival_ = arrival;
  inFlight_.push(std::move(p));
  sim.schedule(arrival, [this] { onArrival(); });
}

void NetDevice::onArrival() {
  Packet p = inFlight_.pop();
  peer_->notifyTaps(p, TapDir::Ingress);
  peer_->owner().receive(std::move(p), *peer_);
}

void NetDevice::notifyTaps(const Packet& p, TapDir dir) const {
  for (const auto& tap : taps_) tap(p, dir);
}

// --------------------------------------------------------------------- Link

std::pair<NetDevice&, NetDevice&> Link::connect(Node& a, Node& b,
                                                const LinkConfig& aToB,
                                                const LinkConfig& bToA) {
  NetDevice& devA = a.addDevice(a.name() + "->" + b.name());
  NetDevice& devB = b.addDevice(b.name() + "->" + a.name());
  devA.peer_ = &devB;
  devB.peer_ = &devA;
  devA.cfg_ = aToB;
  devB.cfg_ = bToA;
  return {devA, devB};
}

// --------------------------------------------------------------------- Node

Node::Node(Simulator& sim, PacketChunkPool& chunks, std::string name)
    : sim_{sim}, chunks_{chunks}, name_{std::move(name)} {}

NetDevice& Node::addDevice(std::string name) {
  devices_.push_back(std::make_unique<NetDevice>(*this, chunks_, std::move(name)));
  return *devices_.back();
}

void Node::addAddress(Ipv4Address addr) { addresses_.push_back(addr); }

bool Node::ownsAddress(Ipv4Address addr) const {
  return std::find(addresses_.begin(), addresses_.end(), addr) != addresses_.end();
}

Ipv4Address Node::primaryAddress() const {
  return addresses_.empty() ? Ipv4Address{} : addresses_.front();
}

void Node::addHostRoute(Ipv4Address dst, NetDevice& via) {
  addPrefixRoute(dst, 32, via);
}

void Node::addPrefixRoute(Ipv4Address prefix, int prefixLen, NetDevice& via) {
  routes_.push_back(RouteEntry{prefix, prefixLen, &via});
  std::stable_sort(routes_.begin(), routes_.end(),
                   [](const RouteEntry& a, const RouteEntry& b) {
                     return a.prefixLen > b.prefixLen;
                   });
}

void Node::setDefaultRoute(NetDevice& via) { defaultRoute_ = &via; }

NetDevice* Node::route(Ipv4Address dst) const {
  for (const auto& entry : routes_) {
    if (dst.inPrefix(entry.prefix, entry.prefixLen)) return entry.via;
  }
  return defaultRoute_;
}

void Node::sendFromLocal(Packet p) {
  if (p.src.isUnspecified()) p.src = primaryAddress();
  // Uid assignment is per-simulation (not process-global) so concurrent
  // seed-sweep runs stay byte-identical to serial ones.
  if (p.uid == 0) p.uid = sim().nextId();
  if (ownsAddress(p.dst)) {
    // Loopback delivery, e.g. a locally-hosted private Hubs server.
    handleLocal(std::move(p));
    return;
  }
  NetDevice* via = route(p.dst);
  if (via == nullptr) {
    ++unroutableDrops_;
    return;
  }
  via->send(std::move(p));
}

void Node::receive(Packet p, NetDevice& /*from*/) {
  if (ownsAddress(p.dst)) {
    handleLocal(std::move(p));
    return;
  }
  forward(std::move(p));
}

void Node::handleLocal(Packet p) {
  if (p.proto == IpProto::Icmp) {
    const IcmpHeader* icmp = p.icmp();
    if (icmp != nullptr && icmp->type == IcmpType::EchoRequest && icmpEchoEnabled_) {
      Packet reply;
      reply.src = p.dst;
      reply.dst = p.src;
      reply.proto = IpProto::Icmp;
      reply.overheadBytes = wire::kEthIpIcmp;
      reply.payloadBytes = p.payloadBytes;
      IcmpHeader hdr;
      hdr.type = IcmpType::EchoReply;
      hdr.ident = icmp->ident;
      hdr.seq = icmp->seq;
      reply.l4 = hdr;
      sendFromLocal(std::move(reply));
      return;
    }
    for (const auto& listener : icmpListeners_) listener(p);
    return;
  }
  if (localHandler_) localHandler_(p);
}

void Node::forward(Packet p) {
  if (p.ttl <= 1) {
    sendIcmpTimeExceeded(p);
    return;
  }
  --p.ttl;
  NetDevice* via = route(p.dst);
  if (via == nullptr) {
    ++unroutableDrops_;
    return;
  }
  via->send(std::move(p));
}

void Node::sendIcmpTimeExceeded(const Packet& expired) {
  Packet msg;
  msg.src = primaryAddress();
  msg.dst = expired.src;
  msg.proto = IpProto::Icmp;
  msg.overheadBytes = wire::kEthIpIcmp;
  msg.payloadBytes = ByteSize::bytes(28);  // quoted inner header
  IcmpHeader hdr;
  hdr.type = IcmpType::TimeExceeded;
  hdr.originalDst = expired.dst;
  hdr.originalDstPort = expired.dstPort;
  if (const IcmpHeader* inner = expired.icmp()) {
    hdr.ident = inner->ident;
    hdr.seq = inner->seq;
  }
  msg.l4 = hdr;
  sendFromLocal(std::move(msg));
}

// ------------------------------------------------------------------ Network

Node& Network::addNode(std::string name) {
  nodes_.push_back(std::make_unique<Node>(sim_, packetChunks_, std::move(name)));
  return *nodes_.back();
}

Node* Network::findNode(const std::string& name) {
  for (const auto& n : nodes_) {
    if (n->name() == name) return n.get();
  }
  return nullptr;
}

}  // namespace msim
