#include "cluster/deployment.hpp"

#include <string>

namespace msim::cluster {

ClusterDeployment::ClusterDeployment(Simulator& sim, Network& net,
                                     InternetFabric& fabric, PlatformSpec spec,
                                     ClusterConfig cfg,
                                     std::vector<Region> serveRegions)
    : PlatformDeployment{sim,  net, fabric, spec, std::move(serveRegions),
                         ControlTierOnly{}} {
  if (cfg.regions.empty()) cfg.regions = this->serveRegions();
  manager_ = std::make_unique<InstanceManager>(sim, spec.data, std::move(cfg));

  // One networked replica per shard. Shards spun up after construction stay
  // detached (no node) — elastic scale-out is modelled at the room level.
  for (const auto& instPtr : manager_->instances()) {
    RelayInstance& inst = *instPtr;
    const Ipv4Address addr =
        providerAddress(spec.data.owner, inst.region(), nextHostOctet());
    Node& node = fabric.attachHost(
        spec.name + ".shard." + std::to_string(inst.id()), inst.region(), addr);
    auto server = spec.data.protocol == DataProtocol::Udp
                      ? RelayServer::makeUdp(node, kDataPort, inst.roomPtr())
                      : RelayServer::makeTls(node, kDataPort, inst.roomPtr());
    server->startMiscDownlink();
    inst.room().startEvictionSweep();
    inst.setEndpoint(Endpoint{addr, kDataPort});
    registerDataAddress(addr);
    servers_.push_back(std::move(server));
  }
  if (!manager_->instances().empty()) {
    setPrimaryRoom(manager_->instances().front()->roomPtr());
  }
}

Endpoint ClusterDeployment::dataEndpointFor(const Region& userRegion,
                                            int userIndex) const {
  // Steering keys live in a range disjoint from room user ids: migration
  // re-pins users by their in-room id, and the two key spaces must not
  // collide in the gateway's assignment table.
  const std::uint64_t key = (1ull << 32) + static_cast<std::uint64_t>(userIndex);
  RelayInstance* inst = manager_->gateway().place(key, userRegion);
  if (inst == nullptr || inst->endpoint().port == 0) {
    return manager_->instances().front()->endpoint();
  }
  return inst->endpoint();
}

std::size_t ClusterDeployment::drainShard(std::uint32_t instanceId) {
  RelayInstance* source = manager_->instance(instanceId);
  if (source == nullptr || instanceId >= servers_.size()) return 0;
  RelayServer* homeServer = servers_[instanceId].get();
  const std::vector<std::uint64_t> ids = source->room().userIds();
  // Users stay homed on their current replica: the replica's backing room is
  // swapped to the migration target below, so existing UDP/TLS sessions keep
  // flowing — a live handoff, not a reconnect.
  const std::size_t moved = manager_->drain(
      instanceId, [homeServer](std::uint64_t) { return homeServer; });
  if (moved > 0 && !ids.empty()) {
    // All migrated users landed on one target shard; re-point the replica so
    // traffic from its still-connected users enters the target room.
    if (RelayInstance* target = manager_->instanceOf(ids.front())) {
      homeServer->setRoom(target->roomPtr());
    }
  }
  return moved;
}

}  // namespace msim::cluster
