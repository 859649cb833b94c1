#pragma once

// A platform deployment whose data tier is a sharded cluster: N relay
// instances behind a gateway, instead of the base class's fixed replica set.
//
// dataEndpointFor() becomes a placement decision — exactly the behaviour
// the paper probed from outside (§4.2): two clients joining the same
// platform can be handed different server addresses, and which machine you
// land on determines the performance you observe (§7).

#include <memory>
#include <vector>

#include "cluster/manager.hpp"
#include "platform/deployment.hpp"

namespace msim::cluster {

class ClusterDeployment : public PlatformDeployment {
 public:
  /// Builds the control tier as usual, plus one networked relay server per
  /// cluster shard (cfg.initialInstances of them, region round-robin).
  ClusterDeployment(Simulator& sim, Network& net, InternetFabric& fabric,
                    PlatformSpec spec, ClusterConfig cfg,
                    std::vector<Region> serveRegions = {});

  /// Resolves via the gateway; sticky per user index. Falls back to shard 0
  /// when the whole cluster is full.
  [[nodiscard]] Endpoint dataEndpointFor(const Region& userRegion,
                                         int userIndex) const override;

  [[nodiscard]] InstanceManager& manager() { return *manager_; }
  [[nodiscard]] RelayServer& serverOf(std::uint32_t instanceId) {
    return *servers_[instanceId];
  }

  /// Live-drains a shard: its room migrates to the policy's target shard and
  /// the shard's replica re-homes onto the target room, so users connected
  /// to the drained server keep sending and receiving through their existing
  /// session without a reconnect. Returns users moved.
  std::size_t drainShard(std::uint32_t instanceId);

 private:
  // mutable: placement is sticky state advanced inside const resolution,
  // mirroring how a real LB mutates its session table on first contact.
  mutable std::unique_ptr<InstanceManager> manager_;
  std::vector<std::unique_ptr<RelayServer>> servers_;
};

}  // namespace msim::cluster
