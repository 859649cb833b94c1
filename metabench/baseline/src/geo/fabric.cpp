#include "geo/fabric.hpp"

#include <limits>

namespace msim {

namespace {
// Core-to-core links are fat pipes; congestion lives at the edges.
LinkConfig interCoreLink(Duration delay) {
  LinkConfig cfg;
  cfg.rate = DataRate::gbps(100);
  cfg.delay = delay;
  cfg.queueLimit = ByteSize::megabytes(16);
  return cfg;
}
}  // namespace

InternetFabric::CoreInfo& InternetFabric::coreInfo(const Region& region) {
  auto it = cores_.find(region.name);
  if (it != cores_.end()) return it->second;

  CoreInfo info;
  info.region = region;
  info.router = &net_.addNode("core." + region.name);
  // Core routers get addresses in 198.18/16 (benchmark space) so traceroute
  // hops are identifiable.
  info.router->addAddress(Ipv4Address(198, 18, 0, static_cast<std::uint8_t>(++coreAddrCounter_)));

  auto [newIt, inserted] = cores_.emplace(region.name, std::move(info));
  CoreInfo& self = newIt->second;

  // Mesh with every existing core.
  for (auto& [otherName, other] : cores_) {
    if (otherName == region.name) continue;
    const Duration delay = interRegionDelay(self.region, other.region);
    auto [devSelf, devOther] =
        Link::connect(*self.router, *other.router, interCoreLink(delay));
    self.toRegion[otherName] = &devSelf;
    other.toRegion[region.name] = &devOther;
    // The new core must reach hosts already attached elsewhere, and existing
    // cores must reach this core's address.
    other.router->addHostRoute(self.router->primaryAddress(), devOther);
    self.router->addHostRoute(other.router->primaryAddress(), devSelf);
  }
  for (const HostEntry& host : hosts_) {
    if (host.info.region.name != region.name) {
      routeFromCore(self, host.info.addr, host.info.region, nullptr);
    }
  }
  return self;
}

Node& InternetFabric::coreRouter(const Region& region) {
  return *coreInfo(region).router;
}

void InternetFabric::routeFromCore(CoreInfo& from, Ipv4Address addr,
                                   const Region& toRegion,
                                   NetDevice* accessDevice) {
  if (from.region.name == toRegion.name) {
    if (accessDevice != nullptr) from.router->addHostRoute(addr, *accessDevice);
    return;
  }
  const auto it = from.toRegion.find(toRegion.name);
  if (it != from.toRegion.end()) from.router->addHostRoute(addr, *it->second);
}

Node& InternetFabric::attachHost(const std::string& name, const Region& region,
                                 Ipv4Address addr, const AccessConfig& access) {
  Node& host = net_.addNode(name);
  attachExistingHost(host, region, addr, access);
  return host;
}

void InternetFabric::attachExistingHost(Node& host, const Region& region,
                                        Ipv4Address addr,
                                        const AccessConfig& access) {
  CoreInfo& core = coreInfo(region);
  host.addAddress(addr);
  LinkConfig cfg;
  cfg.rate = access.rate;
  cfg.delay = access.delay;
  cfg.queueLimit = access.queueLimit;
  auto [hostDev, coreDev] = Link::connect(host, *core.router, cfg);
  host.setDefaultRoute(hostDev);

  hosts_.push_back(HostEntry{&host, HostInfo{region, addr, &coreDev}});

  // Every core learns how to reach this host.
  for (auto& [coreName, info] : cores_) {
    routeFromCore(info, addr, region, &coreDev);
  }
}

void InternetFabric::advertiseAnycast(Ipv4Address addr,
                                      const std::vector<Node*>& replicas) {
  // Each replica answers for the shared address.
  for (Node* replica : replicas) {
    if (replica != nullptr && !replica->ownsAddress(addr)) {
      replica->addAddress(addr);
    }
  }
  // Each core routes the address toward its delay-nearest replica.
  for (auto& [coreName, core] : cores_) {
    Node* best = nullptr;
    Duration bestDelay = Duration::max();
    for (Node* replica : replicas) {
      const HostInfo* hostInfo = findHost(replica);
      if (hostInfo == nullptr) continue;
      const Duration d = core.region.name == hostInfo->region.name
                             ? Duration::zero()
                             : interRegionDelay(core.region, hostInfo->region);
      if (d < bestDelay) {
        bestDelay = d;
        best = replica;
      }
    }
    if (best == nullptr) continue;
    const HostInfo& info = *findHost(best);
    routeFromCore(core, addr, info.region,
                  info.region.name == core.region.name ? info.coreSideDevice
                                                       : nullptr);
  }
}

void InternetFabric::addHostAlias(Node& attachedHost, Ipv4Address extraAddr) {
  const HostInfo* found = findHost(&attachedHost);
  if (found == nullptr) return;
  const HostInfo& info = *found;
  for (auto& [coreName, core] : cores_) {
    routeFromCore(core, extraAddr, info.region,
                  core.region.name == info.region.name ? info.coreSideDevice
                                                       : nullptr);
  }
}

const Region* InternetFabric::regionOf(const Node* host) const {
  const HostInfo* info = findHost(host);
  return info != nullptr ? &info->region : nullptr;
}

const InternetFabric::HostInfo* InternetFabric::findHost(
    const Node* host) const {
  for (const HostEntry& e : hosts_) {
    if (e.node == host) return &e.info;
  }
  return nullptr;
}

}  // namespace msim
