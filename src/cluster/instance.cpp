#include "cluster/instance.hpp"

#include <algorithm>

namespace msim::cluster {

const char* toString(InstanceState s) {
  switch (s) {
    case InstanceState::Starting: return "starting";
    case InstanceState::Active: return "active";
    case InstanceState::Draining: return "draining";
    case InstanceState::Stopped: return "stopped";
  }
  return "?";
}

RelayInstance::RelayInstance(Simulator& sim, std::uint32_t id, Region region,
                             DataSpec spec, ShardCapacitySpec capacity)
    : sim_{sim},
      id_{id},
      region_{std::move(region)},
      capacity_{capacity},
      baseProvisioning_{spec.provisioningFactor} {
  room_ = std::make_shared<RelayRoom>(sim_, std::move(spec));
  room_->hooks().onLocalDeliver = [this](std::uint64_t toUser,
                                         const Message& m) {
    ++deliveredMsgs_;
    deliveredBytes_ += m.size;
    if (sink_) sink_(id_, toUser, m);
  };
  loadSampler_ = std::make_unique<PeriodicTask>(
      sim_, capacity_.loadSampleEvery, [this] { sampleLoad(); });
}

void RelayInstance::activate() {
  if (state_ == InstanceState::Starting) state_ = InstanceState::Active;
}

void RelayInstance::beginDrain() {
  if (state_ == InstanceState::Active || state_ == InstanceState::Starting) {
    state_ = InstanceState::Draining;
  }
}

void RelayInstance::stop() {
  state_ = InstanceState::Stopped;
  if (loadSampler_) loadSampler_->stop();
  // A room must outlive every delivery it scheduled: each in-flight span
  // event points at the room itself. room_ stays alive here, so in-flight
  // deliveries complete after the shard stops.
}

RelayRoomSnapshot RelayInstance::evacuate() {
  RelayRoomSnapshot snap = room_->exportSnapshot();
  for (const RelayUserRecord& u : snap.users) room_->leave(u.id);
  return snap;
}

void RelayInstance::adopt(
    const RelayRoomSnapshot& snap,
    const std::function<RelayServer*(std::uint64_t)>& homeFor) {
  room_->reserveUsers(userCount() + snap.users.size());
  room_->importSnapshot(snap, homeFor);
}

double RelayInstance::utilization() const {
  const double cap = capacity_.forwardCapacityPerSec();
  return cap > 0.0 ? ewmaForwardRate_ / cap : 0.0;
}

void RelayInstance::sampleLoad() {
  const std::uint64_t total = room_->forwardedMessages();
  const std::uint64_t delta = total - lastForwardCount_;
  lastForwardCount_ = total;
  const double windowS = capacity_.loadSampleEvery.toSeconds();
  const double rate = windowS > 0.0 ? static_cast<double>(delta) / windowS : 0.0;
  const double a = capacity_.loadEwmaAlpha;
  ewmaForwardRate_ = a * rate + (1.0 - a) * ewmaForwardRate_;

  // Past the knee, queueing inflates processing delay roughly like an
  // M/M/1 residence time: over/(1-u), clamped so an overcommitted shard
  // degrades hard but the sim stays finite.
  const double u = utilization();
  const double over = std::max(0.0, u - capacity_.saturationKnee);
  double inflation = 1.0;
  if (over > 0.0) {
    inflation = 1.0 + over / std::max(0.02, 1.0 - std::min(u, 0.98));
  }
  inflation_ = std::min(inflation, capacity_.maxInflation);
  room_->setProvisioningFactor(baseProvisioning_ * inflation_);
}

}  // namespace msim::cluster
