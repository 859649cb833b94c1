#include "geo/dns.hpp"

#include <limits>

namespace msim {

void Dns::addStatic(const std::string& name, Ipv4Address addr) {
  resolvers_[name] = [addr](const Region&) { return addr; };
}

void Dns::addNearest(const std::string& name,
                     std::vector<std::pair<Region, Ipv4Address>> replicas) {
  resolvers_[name] = [replicas = std::move(replicas)](const Region& client) {
    Ipv4Address best;
    double bestKm = std::numeric_limits<double>::max();
    for (const auto& [region, addr] : replicas) {
      const double km = greatCircleKm(client.location, region.location);
      if (km < bestKm) {
        bestKm = km;
        best = addr;
      }
    }
    return best;
  };
}

void Dns::addPolicy(const std::string& name, Resolver resolver) {
  resolvers_[name] = std::move(resolver);
}

Ipv4Address Dns::resolve(const std::string& name, const Region& clientRegion) const {
  const auto it = resolvers_.find(name);
  return it != resolvers_.end() ? it->second(clientRegion) : Ipv4Address{};
}

}  // namespace msim
