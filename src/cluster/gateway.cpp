#include "cluster/gateway.hpp"

#include <algorithm>

namespace msim::cluster {

namespace {

/// A pinned shard that can still serve its users (Starting/Active).
bool serving(const RelayInstance& inst) {
  return inst.state() == InstanceState::Active ||
         inst.state() == InstanceState::Starting;
}

}  // namespace

const char* toString(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::RegionAffinity: return "region-affinity";
    case PlacementPolicy::LeastLoaded: return "least-loaded";
    case PlacementPolicy::FillToCapacity: return "fill-to-capacity";
  }
  return "?";
}

std::size_t Gateway::occupancy(const RelayInstance& inst) const {
  return std::max<std::size_t>(inst.userCount(), assignedCount(inst.id()));
}

bool Gateway::accepting(const RelayInstance& inst) const {
  if (inst.state() != InstanceState::Active) return false;
  const int cap = inst.capacity().softUserCap;
  return cap <= 0 || occupancy(inst) < static_cast<std::size_t>(cap);
}

void Gateway::bumpAssigned(std::uint32_t instanceId, int delta) {
  if (assigned_.size() <= instanceId) assigned_.resize(instanceId + 1, 0);
  if (delta < 0 && assigned_[instanceId] == 0) return;
  assigned_[instanceId] = static_cast<std::uint32_t>(
      static_cast<int>(assigned_[instanceId]) + delta);
}

RelayInstance* Gateway::place(std::uint64_t userKey, const Region& userRegion) {
  if (const std::uint32_t* id = assignment_.find(userKey)) {
    RelayInstance* inst = instances_[*id].get();
    // A stale pin onto a drained/stopped shard re-places the user.
    if (serving(*inst)) return inst;
  }
  return replace(userKey, userRegion);
}

RelayInstance* Gateway::placeReconnect(std::uint64_t userKey,
                                       const Region& userRegion) {
  const std::uint32_t* id = assignment_.find(userKey);
  if (id == nullptr) return place(userKey, userRegion);  // never placed
  RelayInstance* pinned = instances_[*id].get();
  if (serving(*pinned)) {
    ++reconnectsSticky_;
    return pinned;
  }
  // The pinned shard is Draining/Stopped: drop the pin and run the policy
  // again, exactly as a fresh placement (counts as one).
  RelayInstance* chosen = replace(userKey, userRegion);
  if (chosen != nullptr) ++reconnectsReplaced_;
  return chosen;
}

RelayInstance* Gateway::replace(std::uint64_t userKey,
                                const Region& userRegion) {
  forget(userKey);
  RelayInstance* chosen = pick(userRegion);
  if (chosen == nullptr) return nullptr;
  assignment_.insert(userKey, chosen->id());
  bumpAssigned(chosen->id(), +1);
  ++placements_;
  if (perInstance_.size() <= chosen->id()) perInstance_.resize(chosen->id() + 1);
  ++perInstance_[chosen->id()];
  return chosen;
}

RelayInstance* Gateway::instanceOf(std::uint64_t userKey) const {
  const std::uint32_t* id = assignment_.find(userKey);
  return id != nullptr ? instances_[*id].get() : nullptr;
}

void Gateway::reassign(std::uint64_t userKey, std::uint32_t instanceId) {
  if (const std::uint32_t* old = assignment_.find(userKey)) {
    bumpAssigned(*old, -1);
  }
  assignment_[userKey] = instanceId;
  bumpAssigned(instanceId, +1);
}

void Gateway::forget(std::uint64_t userKey) {
  if (const std::uint32_t* id = assignment_.find(userKey)) {
    bumpAssigned(*id, -1);
    assignment_.erase(userKey);
  }
}

RelayInstance* Gateway::pick(const Region& userRegion) const {
  // Load metric: assigned/joined occupancy relative to the soft cap when one
  // is set, raw occupancy otherwise. Ties break to the lowest shard id,
  // which keeps placement deterministic for a fixed join order.
  const auto load = [this](const RelayInstance& inst) {
    const int cap = inst.capacity().softUserCap;
    const double users = static_cast<double>(occupancy(inst));
    return cap > 0 ? users / static_cast<double>(cap) : users;
  };

  RelayInstance* best = nullptr;
  double bestLoad = 0.0;
  bool bestInRegion = false;
  for (const auto& instPtr : instances_) {
    RelayInstance* inst = instPtr.get();
    if (!accepting(*inst)) continue;
    switch (policy_) {
      case PlacementPolicy::FillToCapacity:
        // First accepting shard in id order: fill it until its cap trips.
        return inst;
      case PlacementPolicy::LeastLoaded: {
        const double l = load(*inst);
        if (best == nullptr || l < bestLoad) {
          best = inst;
          bestLoad = l;
        }
        break;
      }
      case PlacementPolicy::RegionAffinity: {
        const bool inRegion = inst->region() == userRegion;
        const double l = load(*inst);
        // In-region beats out-of-region; within a tier, least-loaded wins.
        if (best == nullptr || (inRegion && !bestInRegion) ||
            (inRegion == bestInRegion && l < bestLoad)) {
          best = inst;
          bestLoad = l;
          bestInRegion = inRegion;
        }
        break;
      }
    }
  }
  return best;
}

}  // namespace msim::cluster
