#pragma once

// One relay shard (a VRChat-style "instance" / one Hubs room) inside a
// cluster, with a server capacity model.
//
// The paper's scalability sections measure a *single* relay machine: a
// private Hubs server loses 32% FPS by 28 users (§7, Fig. 9) and per-user
// downlink grows linearly with the event size (Fig. 7). Real platforms
// escape that wall by running many replicas and steering users across them
// (§4.2, Table 2). RelayInstance is the unit of that escape: it owns one
// RelayRoom plus a CPU-cost model that turns sustained forward rate into
// utilization, and utilization past the knee into queueing delay — the
// mechanism behind the paper's observation that an overloaded public Hubs
// node runs ~70% slower than a well-provisioned private one.

#include <cstdint>
#include <memory>
#include <string>

#include "platform/relay.hpp"

namespace msim::cluster {

/// Per-shard server capacity model.
struct ShardCapacitySpec {
  /// Server CPU cost per forwarded message (decode, filter, enqueue), µs.
  /// ~15 µs matches a t3.medium-class relay saturating around 130k
  /// forwards/s on two cores.
  double cpuPerForwardUs{15.0};
  /// Cores the shard may burn on forwarding.
  double cores{2.0};
  /// Users the gateway will pack into the shard before treating it as full
  /// (0 = unlimited; the room's own maxEventUsers cap still applies).
  int softUserCap{0};
  /// Utilization where queueing starts to inflate processing delay.
  double saturationKnee{0.7};
  /// Hard ceiling on the queueing inflation factor.
  double maxInflation{50.0};
  /// Cadence of the load sampler.
  Duration loadSampleEvery = Duration::millis(500);
  /// EWMA smoothing applied to the sampled forward rate.
  double loadEwmaAlpha{0.3};

  /// Forwards per second the shard can absorb at 100% utilization.
  [[nodiscard]] double forwardCapacityPerSec() const {
    return cpuPerForwardUs > 0.0 ? cores * 1e6 / cpuPerForwardUs : 0.0;
  }
};

/// Shard lifecycle (§4.2's elastic serving topology).
enum class InstanceState : std::uint8_t { Starting, Active, Draining, Stopped };

[[nodiscard]] const char* toString(InstanceState s);

class RelayInstance {
 public:
  RelayInstance(Simulator& sim, std::uint32_t id, Region region, DataSpec spec,
                ShardCapacitySpec capacity);

  RelayInstance(const RelayInstance&) = delete;
  RelayInstance& operator=(const RelayInstance&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] const Region& region() const { return region_; }
  [[nodiscard]] InstanceState state() const { return state_; }
  [[nodiscard]] RelayRoom& room() { return *room_; }
  [[nodiscard]] const std::shared_ptr<RelayRoom>& roomPtr() const { return room_; }
  [[nodiscard]] const ShardCapacitySpec& capacity() const { return capacity_; }
  [[nodiscard]] std::size_t userCount() const { return room_->userCount(); }

  // ---- lifecycle ----------------------------------------------------------
  void activate();
  void beginDrain();
  void stop();

  // ---- room hand-off (drain, crash, partitioned migration) -----------------
  /// Exports the room in id order and leaves every member. Fan-out spans
  /// already scheduled here fixed their receivers in the room's arena at
  /// broadcast time, so in-flight deliveries still land after the members
  /// are gone.
  RelayRoomSnapshot evacuate();
  /// Imports an evacuated room, pre-sized for the merged population so a
  /// large import never rehashes a column mid-join. `homeFor` keeps
  /// networked users homed on their replica (see RelayRoom::importSnapshot).
  void adopt(const RelayRoomSnapshot& snap,
             const std::function<RelayServer*(std::uint64_t)>& homeFor = {});

  // ---- capacity model -----------------------------------------------------
  /// EWMA of the room's forward rate, forwards/s.
  [[nodiscard]] double forwardRatePerSec() const { return ewmaForwardRate_; }
  /// forwardRate × cpuPerForward / budget; >1 = overcommitted.
  [[nodiscard]] double utilization() const;
  /// Current processing-delay inflation applied to the room (1 = healthy).
  [[nodiscard]] double queueInflation() const { return inflation_; }

  // ---- delivery accounting (detached mode) --------------------------------
  using DeliverySink =
      std::function<void(std::uint32_t instanceId, std::uint64_t toUser,
                         const Message& m)>;
  /// Chained behind the per-instance counters; the cluster bench and the
  /// migration tests observe every detached delivery through this.
  void setDeliverySink(DeliverySink sink) { sink_ = std::move(sink); }
  [[nodiscard]] std::uint64_t deliveredMessages() const { return deliveredMsgs_; }
  [[nodiscard]] ByteSize deliveredBytes() const { return deliveredBytes_; }

  // ---- networked attachment (ClusterDeployment) ---------------------------
  void setEndpoint(const Endpoint& ep) { endpoint_ = ep; }
  [[nodiscard]] const Endpoint& endpoint() const { return endpoint_; }

 private:
  void sampleLoad();

  Simulator& sim_;
  std::uint32_t id_;
  Region region_;
  ShardCapacitySpec capacity_;
  InstanceState state_{InstanceState::Starting};
  std::shared_ptr<RelayRoom> room_;
  Endpoint endpoint_;

  double baseProvisioning_{1.0};
  double ewmaForwardRate_{0.0};
  double inflation_{1.0};
  std::uint64_t lastForwardCount_{0};
  std::unique_ptr<PeriodicTask> loadSampler_;

  DeliverySink sink_;
  std::uint64_t deliveredMsgs_{0};
  ByteSize deliveredBytes_;
};

}  // namespace msim::cluster
