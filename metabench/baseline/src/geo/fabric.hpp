#pragma once

// The simulated internet: one core router per region, a full mesh of
// inter-region links with geographic propagation delays, hosts attached via
// access links, and anycast advertisement (the same service address routed
// to the nearest replica from each region) — the addressing approach the
// paper detected for AltspaceVR, Rec Room, VRChat and Cloudflare (§4.2).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "geo/geo.hpp"
#include "net/node.hpp"

namespace msim {

/// Access-link parameters for a host attachment.
struct AccessConfig {
  DataRate rate = DataRate::gbps(1);
  Duration delay = Duration::micros(500);
  ByteSize queueLimit = ByteSize::kilobytes(512);
};

/// Builds and owns the topology's routing; nodes are owned by the Network.
class InternetFabric {
 public:
  explicit InternetFabric(Network& net) : net_{net} {}

  InternetFabric(const InternetFabric&) = delete;
  InternetFabric& operator=(const InternetFabric&) = delete;

  /// The region's core router (created on first use, meshed with all
  /// existing cores).
  Node& coreRouter(const Region& region);

  /// Creates a host node in `region` with `addr` and wires routing both
  /// ways (host default-routes to its core; every core learns the host).
  Node& attachHost(const std::string& name, const Region& region,
                   Ipv4Address addr, const AccessConfig& access = {});

  /// Attaches an existing node (e.g. a WiFi AP built by the testbed).
  void attachExistingHost(Node& host, const Region& region, Ipv4Address addr,
                          const AccessConfig& access = {});

  /// Advertises `addr` as anycast across `replicas` (which must be attached
  /// hosts): each region's core routes the address to the delay-nearest
  /// replica, and every replica answers for it.
  void advertiseAnycast(Ipv4Address addr, const std::vector<Node*>& replicas);

  /// Routes an extra address toward an already-attached host (e.g. a device
  /// sitting *behind* that host, like a headset behind its WiFi AP). The
  /// host itself is expected to forward onward.
  void addHostAlias(Node& attachedHost, Ipv4Address extraAddr);

  /// Region a host was attached in; nullptr if unknown.
  [[nodiscard]] const Region* regionOf(const Node* host) const;

  /// One-way core-to-core delay between two regions.
  [[nodiscard]] static Duration interRegionDelay(const Region& a, const Region& b) {
    return propagationDelay(a.location, b.location);
  }

  /// Conservative lower bound on delivering anything between hosts in the
  /// two regions through the fabric: trunk propagation plus both access
  /// links' base delay, before any serialization or queueing is added.
  /// Strictly positive even same-region (the two access hops remain), which
  /// is what lets PDES partitions use trunk links as conservative-lookahead
  /// channels (pdes/pdes.hpp) — the paper's inter-region RTTs (§4–§6, tens
  /// of ms) dwarf intra-shard event spacing, so this bound buys real
  /// parallel windows.
  [[nodiscard]] static Duration trunkLookahead(const Region& a, const Region& b,
                                               const AccessConfig& access = {}) {
    return interRegionDelay(a, b) + access.delay + access.delay;
  }

 private:
  struct CoreInfo {
    Region region;
    Node* router{nullptr};
    // Device on this core toward each other region's core.
    std::map<std::string, NetDevice*> toRegion;
  };
  struct HostInfo {
    Region region;
    Ipv4Address addr;
    NetDevice* coreSideDevice{nullptr};  // device on the core toward the host
  };
  struct HostEntry {
    const Node* node{nullptr};
    HostInfo info;
  };

  [[nodiscard]] const HostInfo* findHost(const Node* host) const;

  CoreInfo& coreInfo(const Region& region);
  /// Installs a route to `addr` in core `from` pointing toward `toRegion`
  /// (either the access device or the inter-region device).
  void routeFromCore(CoreInfo& from, Ipv4Address addr, const Region& toRegion,
                     NetDevice* accessDevice);

  Network& net_;
  std::map<std::string, CoreInfo> cores_;
  // Attachment order, not address order: iteration over hosts must be
  // deterministic, and pointer keys are not (detlint R3). Lookups are linear,
  // which is fine at fabric scale (tens of hosts).
  std::vector<HostEntry> hosts_;
  int coreAddrCounter_{0};
};

}  // namespace msim
