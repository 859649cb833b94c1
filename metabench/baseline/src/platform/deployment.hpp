#pragma once

// Deploys a platform's server tiers onto the simulated internet per its
// placement spec (Table 2), and answers "which server does a user in region
// R talk to?" — the question the paper answered with DNS, WHOIS, ping and
// traceroute.

#include <memory>
#include <vector>

#include "geo/dns.hpp"
#include "geo/fabric.hpp"
#include "geo/whois.hpp"
#include "platform/control.hpp"
#include "platform/relay.hpp"
#include "platform/rtp_relay.hpp"
#include "session/session.hpp"

namespace msim {

/// All servers of one platform on one fabric.
///
/// Subclassable: the cluster layer (src/cluster) derives a deployment whose
/// data tier is a sharded instance fleet behind a gateway, overriding
/// dataEndpointFor so per-user steering becomes a placement decision.
class PlatformDeployment {
 public:
  /// Builds control and data tiers in `serveRegions` (defaults to
  /// us-east / us-west / europe, matching the providers' footprints).
  PlatformDeployment(Simulator& sim, Network& net, InternetFabric& fabric,
                     PlatformSpec spec,
                     std::vector<Region> serveRegions = {});

  virtual ~PlatformDeployment() = default;

  PlatformDeployment(const PlatformDeployment&) = delete;
  PlatformDeployment& operator=(const PlatformDeployment&) = delete;

  [[nodiscard]] const PlatformSpec& spec() const { return spec_; }

  /// Control endpoint a client in `userRegion` is steered to.
  [[nodiscard]] Endpoint controlEndpointFor(const Region& userRegion) const;

  /// Data endpoint for the `userIndex`-th user in `userRegion` (load
  /// balancing may hand different users different replicas, §4.2).
  [[nodiscard]] virtual Endpoint dataEndpointFor(const Region& userRegion,
                                                 int userIndex) const;

  /// The shared event/room state (one social event per deployment).
  [[nodiscard]] const std::shared_ptr<RelayRoom>& room() const { return room_; }

  /// Platform-wide token signer for the session tier (src/session). The
  /// secret derives deterministically from the spec name, so tokens verify
  /// across any hub of the same deployment and runs are seed-stable.
  [[nodiscard]] session::TokenAuthority& tokenAuthority() {
    return tokenAuthority_;
  }

  /// Session-tier control-channel load, summed across control sites.
  [[nodiscard]] std::uint64_t sessionEstablishesServed() const;
  [[nodiscard]] std::uint64_t sessionRefreshesServed() const;

  /// Classifier support (the capture agent maps server addresses to
  /// channels the way the paper mapped hostnames/WHOIS).
  [[nodiscard]] bool isControlAddress(Ipv4Address addr) const;
  [[nodiscard]] bool isDataAddress(Ipv4Address addr) const;

  [[nodiscard]] const std::vector<Ipv4Address>& controlAddresses() const {
    return controlAddrs_;
  }
  [[nodiscard]] const std::vector<Ipv4Address>& dataAddresses() const {
    return dataAddrs_;
  }

  /// The UDP/TLS port the data tier listens on.
  static constexpr std::uint16_t kDataPort = 5055;
  static constexpr std::uint16_t kControlPort = 443;
  static constexpr std::uint16_t kVoicePort = 5056;

 protected:
  /// Tag ctor for subclasses that replace the data tier: builds the control
  /// tier only; the subclass attaches its own data nodes/servers, registers
  /// their addresses, and sets the primary room.
  struct ControlTierOnly {};
  PlatformDeployment(Simulator& sim, Network& net, InternetFabric& fabric,
                     PlatformSpec spec, std::vector<Region> serveRegions,
                     ControlTierOnly tag);

  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] const std::vector<Region>& serveRegions() const {
    return regions_;
  }
  /// Registers a subclass-built data address for classifier support.
  void registerDataAddress(Ipv4Address addr) { dataAddrs_.push_back(addr); }
  /// Sets the room reported by room() (a cluster picks its first shard's).
  void setPrimaryRoom(std::shared_ptr<RelayRoom> room) {
    room_ = std::move(room);
  }
  [[nodiscard]] Ipv4Address providerAddress(const std::string& owner,
                                            const Region& region, int host) const;
  /// Deterministic per-deployment host-octet allocator (addresses are
  /// identity, not behaviour). Instance-scoped so concurrent seed-sweep
  /// runs assign identical addresses regardless of thread interleaving.
  std::uint8_t nextHostOctet();

 private:
  struct DataReplica {
    Node* node{nullptr};
    Region region;
    std::unique_ptr<RelayServer> server;
    /// WebRTC-style voice SFU (Hubs): answers RTCP so clients can measure
    /// RTT the way the paper did, and forwards voice frames to all peers.
    std::unique_ptr<RtpRelay> voice;
  };
  struct ControlSite {
    Node* node{nullptr};
    Region region;
    std::unique_ptr<ControlService> service;
  };

  void buildControl(InternetFabric& fabric);
  void buildData(InternetFabric& fabric);

  Simulator& sim_;
  Network& net_;
  PlatformSpec spec_;
  std::vector<Region> regions_;
  std::shared_ptr<RelayRoom> room_;
  session::TokenAuthority tokenAuthority_;
  int hostOctetCounter_{9};

  std::vector<ControlSite> controlSites_;
  std::vector<DataReplica> dataReplicas_;
  Ipv4Address controlAnycast_;
  Ipv4Address dataAnycast_;
  std::vector<Ipv4Address> controlAddrs_;
  std::vector<Ipv4Address> dataAddrs_;
};

}  // namespace msim
