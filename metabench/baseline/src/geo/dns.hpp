#pragma once

// Name resolution with placement policy.
//
// The paper found two steering styles (§4.2): DNS-based assignment of nearby
// unicast servers (VRChat, Worlds, Hubs' regional HTTPS nodes) and anycast
// (AltspaceVR control, Rec Room, Cloudflare data). Dns models the first:
// a name resolves per-client-region, either to a fixed address or to the
// nearest of a replica set. Anycast lives in the routing layer
// (InternetFabric::advertiseAnycast) exactly as it does in reality.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "geo/geo.hpp"
#include "net/address.hpp"

namespace msim {

/// A minimal authoritative resolver.
class Dns {
 public:
  using Resolver = std::function<Ipv4Address(const Region& clientRegion)>;

  /// Name always resolves to one address (anycast or single-homed service).
  void addStatic(const std::string& name, Ipv4Address addr);

  /// Name resolves to the replica nearest the client's region
  /// (latency-based steering, as commercial CDNs/DNS do).
  void addNearest(const std::string& name,
                  std::vector<std::pair<Region, Ipv4Address>> replicas);

  /// Fully custom policy.
  void addPolicy(const std::string& name, Resolver resolver);

  /// Resolves for a client in `clientRegion`; unspecified address if unknown.
  [[nodiscard]] Ipv4Address resolve(const std::string& name,
                                    const Region& clientRegion) const;

  [[nodiscard]] bool knows(const std::string& name) const {
    return resolvers_.count(name) > 0;
  }

 private:
  std::map<std::string, Resolver> resolvers_;
};

}  // namespace msim
