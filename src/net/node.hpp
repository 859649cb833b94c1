#pragma once

// Nodes, network devices and point-to-point links.
//
// A Node owns its devices and a longest-prefix-match forwarding table, and
// performs IP forwarding with TTL decrement (so traceroute works), ICMP echo
// response, and local delivery to the transport layer. Devices model egress
// serialization (rate), a drop-tail queue, propagation delay, optional netem
// impairment, and promiscuous capture taps.
//
// Link event model: a packet that finds its device idle costs exactly one
// event — its arrival at the peer, scheduled when transmission starts at
// start + serialization + propagation. A device's rate and delay are fixed
// and its transmissions are serialized, so its arrivals are FIFO; packets in
// propagation therefore wait in a per-device FIFO and the arrival event
// captures only the device. The only other event is a wake at the end of
// the current transmission, pending exactly while the drop-tail queue is
// non-empty.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/netem.hpp"
#include "net/packet.hpp"
#include "net/packetfifo.hpp"
#include "sim/simulator.hpp"

namespace msim {

class Node;

/// Per-direction link parameters.
struct LinkConfig {
  DataRate rate = DataRate::gbps(1);
  Duration delay = Duration::micros(50);
  ByteSize queueLimit = ByteSize::kilobytes(256);
};

/// Direction of a packet relative to a device, as seen by capture taps.
enum class TapDir : std::uint8_t { Egress, Ingress };

/// One attachment point of a node to a link.
class NetDevice {
 public:
  NetDevice(Node& owner, PacketChunkPool& chunks, std::string name);

  NetDevice(const NetDevice&) = delete;
  NetDevice& operator=(const NetDevice&) = delete;

  [[nodiscard]] Node& owner() { return owner_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] NetDevice* peer() { return peer_; }

  /// Egress entry point: netem -> queue -> serialize -> propagate.
  void send(Packet p);

  /// Netem impairment applied to this device's egress (like `tc qdisc` on
  /// one interface direction).
  [[nodiscard]] Netem& netem() { return netem_; }

  using Tap = std::function<void(const Packet&, TapDir)>;
  /// Registers a promiscuous capture callback (Wireshark-style).
  void addTap(Tap tap) { taps_.push_back(std::move(tap)); }

  [[nodiscard]] std::uint64_t queueDrops() const { return queueDrops_; }
  [[nodiscard]] ByteSize queuedBytes() const { return queuedBytes_; }

 private:
  friend class Link;
  void enqueueForTransmit(Packet p);
  void startTransmit(Packet p);
  void onWake();
  void onArrival();
  void notifyTaps(const Packet& p, TapDir dir) const;

  Node& owner_;
  std::string name_;
  NetDevice* peer_{nullptr};
  LinkConfig cfg_;
  Netem netem_;
  PacketFifo queue_;     // drop-tail queue; a wake is pending iff non-empty
  PacketFifo inFlight_;  // transmitted, arriving at peer_ in this order
  ByteSize queuedBytes_;
  TimePoint busyUntil_{TimePoint::epoch()};  // end of the last transmission
  TimePoint lastArrival_{TimePoint::epoch()};  // asserted monotone (FIFO)
  std::uint64_t queueDrops_{0};
  std::vector<Tap> taps_;
};

/// Wires two nodes together with per-direction configs.
/// Returns the (deviceAtA, deviceAtB) pair; the nodes own the devices.
class Link {
 public:
  static std::pair<NetDevice&, NetDevice&> connect(Node& a, Node& b,
                                                   const LinkConfig& aToB,
                                                   const LinkConfig& bToA);
  static std::pair<NetDevice&, NetDevice&> connect(Node& a, Node& b,
                                                   const LinkConfig& both) {
    return connect(a, b, both, both);
  }
};

/// A host or router in the simulated internet.
class Node {
 public:
  /// `chunks` backs the packet FIFOs of this node's devices (shared by every
  /// node of one Network) and must outlive the node.
  Node(Simulator& sim, PacketChunkPool& chunks, std::string name);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  NetDevice& addDevice(std::string name);
  [[nodiscard]] const std::vector<std::unique_ptr<NetDevice>>& devices() const {
    return devices_;
  }

  /// Addresses this node answers for (a node can own several, including a
  /// shared anycast address).
  void addAddress(Ipv4Address addr);
  [[nodiscard]] bool ownsAddress(Ipv4Address addr) const;
  [[nodiscard]] Ipv4Address primaryAddress() const;

  void addHostRoute(Ipv4Address dst, NetDevice& via);
  void addPrefixRoute(Ipv4Address prefix, int prefixLen, NetDevice& via);
  void setDefaultRoute(NetDevice& via);
  /// Longest-prefix-match lookup; nullptr when unroutable.
  [[nodiscard]] NetDevice* route(Ipv4Address dst) const;

  /// Transport-layer send: stamps src if unset, routes, and transmits.
  void sendFromLocal(Packet p);

  /// Ingress from a device: local delivery or forward (TTL decrement,
  /// ICMP TimeExceeded on expiry).
  void receive(Packet p, NetDevice& from);

  using LocalHandler = std::function<void(const Packet&)>;
  /// Installed by the transport mux; receives all locally-addressed
  /// non-ICMP traffic.
  void setLocalHandler(LocalHandler h) { localHandler_ = std::move(h); }

  using IcmpHandler = std::function<void(const Packet&)>;
  /// Receives locally-addressed ICMP (echo replies, time-exceeded).
  void addIcmpListener(IcmpHandler h) { icmpListeners_.push_back(std::move(h)); }

  /// Whether this node answers ICMP echo requests (some of the paper's
  /// targets blocked ICMP, forcing TCP pings).
  void setIcmpEchoEnabled(bool enabled) { icmpEchoEnabled_ = enabled; }

  /// Packets dropped because no route matched.
  [[nodiscard]] std::uint64_t unroutableDrops() const { return unroutableDrops_; }

  /// Opaque per-node attachment used by the transport layer to keep its
  /// demux alive exactly as long as the node (see TransportMux::of).
  void setTransportAttachment(std::shared_ptr<void> a) { transport_ = std::move(a); }
  [[nodiscard]] const std::shared_ptr<void>& transportAttachment() const { return transport_; }

 private:
  void handleLocal(Packet p);
  void forward(Packet p);
  void sendIcmpTimeExceeded(const Packet& expired);

  struct RouteEntry {
    Ipv4Address prefix;
    int prefixLen;
    NetDevice* via;
  };

  Simulator& sim_;
  PacketChunkPool& chunks_;
  std::string name_;
  std::vector<std::unique_ptr<NetDevice>> devices_;
  std::vector<Ipv4Address> addresses_;
  std::vector<RouteEntry> routes_;  // kept sorted by descending prefixLen
  NetDevice* defaultRoute_{nullptr};
  LocalHandler localHandler_;
  std::vector<IcmpHandler> icmpListeners_;
  bool icmpEchoEnabled_{true};
  std::uint64_t unroutableDrops_{0};
  std::shared_ptr<void> transport_;
};

/// Owns a set of nodes; the root object of a simulated topology.
class Network {
 public:
  explicit Network(Simulator& sim) : sim_{sim} {}

  Node& addNode(std::string name);
  [[nodiscard]] Node* findNode(const std::string& name);
  [[nodiscard]] Simulator& sim() { return sim_; }
  /// Packet storage shared by every device FIFO of this network.
  [[nodiscard]] const PacketChunkPool& packetChunks() const { return packetChunks_; }

 private:
  Simulator& sim_;
  PacketChunkPool packetChunks_;  // declared before nodes_: outlives them
  std::vector<std::unique_ptr<Node>> nodes_;
};

/// Process-unique packet id source (ids are diagnostics, not behaviour).
/// Thread-safe; internal senders use the per-simulation Simulator::nextId()
/// instead so runs stay hermetic under the parallel seed sweep.
[[nodiscard]] std::uint64_t nextPacketUid();

}  // namespace msim
