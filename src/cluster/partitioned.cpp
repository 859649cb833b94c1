#include "cluster/partitioned.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "audit/digest.hpp"
#include "geo/fabric.hpp"

namespace msim::cluster {

namespace {

// Mirrors the engine's "no bound" ceiling: far above any reachable instant,
// low enough that adding a lookahead cannot overflow.
constexpr std::int64_t kInfNs = std::numeric_limits<std::int64_t>::max() / 4;

// Floor on control-link lookahead: the control-plane RPC turnaround.
constexpr Duration kControlLookahead = Duration::millis(25);

const Region& regionOf(std::uint32_t shard) {
  switch (shard % 3) {
    case 0: return regions::usEast();
    case 1: return regions::usWest();
    default: return regions::europe();
  }
}

PartitionedClusterConfig normalize(PartitionedClusterConfig cfg) {
  if (cfg.capacity.softUserCap > 0 || cfg.dataSpec.maxEventUsers > 0) {
    throw std::invalid_argument(
        "PartitionedCluster: placement is round-robin; a user cap "
        "(softUserCap, maxEventUsers) is not supported");
  }
  if (!cfg.directShardLinks) {
    throw std::invalid_argument(
        "PartitionedCluster: migrations and ghosts ride the direct shard "
        "mesh; directShardLinks = false is not supported");
  }
  if (cfg.shards < 1) cfg.shards = 1;
  if (cfg.users < 0) cfg.users = 0;
  return cfg;
}

pdes::EngineConfig engineConfig(const PartitionedClusterConfig& cfg) {
  pdes::EngineConfig ec;
  ec.threads = cfg.threads;
  ec.audit = true;
  ec.adaptiveWindows = cfg.adaptiveWindows;
  return ec;
}

}  // namespace

PartitionedCluster::PartitionedCluster(PartitionedClusterConfig cfg)
    : cfg_{normalize(std::move(cfg))},
      engine_{static_cast<std::uint32_t>(cfg_.shards) + 1, cfg_.seed,
              engineConfig(cfg_)} {
  const auto shardCount = static_cast<std::uint32_t>(cfg_.shards);

  // Channels: control <-> each shard with lookahead = geo trunk bound
  // floored by the control-plane turnaround, plus a direct shard <-> shard
  // mesh at the raw trunk bound — the lanes migration snapshots and
  // interest-scoped ghosts ride.
  shards_.resize(shardCount);
  for (std::uint32_t s = 0; s < shardCount; ++s) {
    const Region& region = regionOf(s);
    Duration lookahead = InternetFabric::trunkLookahead(regionOf(0), region);
    if (lookahead.toNanos() < kControlLookahead.toNanos()) {
      lookahead = kControlLookahead;
    }
    engine_.link(0, partitionOf(s), lookahead);
    engine_.link(partitionOf(s), 0, lookahead);

    Shard& shard = shards_[s];
    shard.inst = std::make_unique<RelayInstance>(
        engine_.partition(partitionOf(s)).sim(), s, region, cfg_.dataSpec,
        cfg_.capacity);
    shard.inst->activate();
    shard.inst->setDeliverySink(
        [this, s](std::uint32_t, std::uint64_t, const Message&) {
          ++shards_[s].delivered;
        });
  }
  for (std::uint32_t s = 0; s < shardCount; ++s) {
    for (std::uint32_t t = 0; t < shardCount; ++t) {
      if (s == t) continue;
      engine_.link(partitionOf(s), partitionOf(t),
                   InternetFabric::trunkLookahead(regionOf(s), regionOf(t)));
    }
  }

  // Memory-lean bulk setup: pre-size every room for its expected share so a
  // 1M-user construction never rehashes a column mid-join, and place users
  // round-robin — what the gateway's LeastLoaded scan picks over fresh,
  // uncapped, equal shards, in O(users) instead of O(users x shards).
  const std::size_t perShard =
      (static_cast<std::size_t>(cfg_.users) + shardCount - 1) / shardCount;
  std::size_t slotsPerCell = 1;
  if (cfg_.latticeSpacingM > 0.0 && cfg_.dataSpec.interestGrid) {
    // Lattice density is known exactly, so the grid's cell tables can be
    // reserved at true occupancy instead of the one-cell-per-member bound.
    const double perAxis = cfg_.dataSpec.interestCellM / cfg_.latticeSpacingM;
    slotsPerCell = static_cast<std::size_t>(std::max(1.0, perAxis * perAxis));
  }
  for (std::uint32_t s = 0; s < shardCount; ++s) {
    shards_[s].inst->room().reserveUsers(perShard, slotsPerCell);
  }
  const std::size_t latticeSide = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(perShard == 0 ? 1 : perShard))));
  assigned_.assign(shardCount, 0);
  accepting_.assign(shardCount, true);
  for (int u = 0; u < cfg_.users; ++u) {
    const std::uint32_t s = static_cast<std::uint32_t>(u) % shardCount;
    const auto id = static_cast<std::uint64_t>(u) + 1;
    shards_[s].inst->room().joinDetached(id);
    const std::size_t k = assigned_[s]++;
    if (cfg_.latticeSpacingM > 0.0) {
      // Deterministic per-shard lattice: pure function of the join order,
      // so interest-grid neighborhoods are identical for every seed,
      // thread count, and shard count.
      shards_[s].inst->room().updatePose(
          id, Pose{cfg_.latticeSpacingM * static_cast<double>(k % latticeSide),
                   cfg_.latticeSpacingM * static_cast<double>(k / latticeSide),
                   0.0});
    }
  }

  shardDrainNs_.resize(shardCount);
  shardDrainCursor_.assign(shardCount, 0);
}

PartitionedCluster::~PartitionedCluster() = default;

void PartitionedCluster::scheduleDrain(std::uint32_t shard, TimePoint at) {
  if (shard >= shards_.size()) {
    throw std::invalid_argument("PartitionedCluster: no such shard");
  }
  drainSchedule_.emplace_back(at.toNanos(), shard);
  engine_.partition(0).sim().schedule(at,
                                      [this, shard] { controlDrain(shard); });
}

// ---- promise choreography ---------------------------------------------------
//
// Every cross-partition send instant in this workload is derivable: drain
// orders go out exactly at their scheduled times, exports exactly when the
// order lands, and ghosts exactly on pacing ticks. The helpers below keep
// each partition's out-links promised up to the earliest such instant still
// ahead of it, so the engine's adaptive bounds can run every quiet stretch
// as one window.
// Under-promising (a floor earlier than the next real send) is always
// sound; the floors are also monotone by construction, which notePromise
// enforces.

void PartitionedCluster::promiseControlLinks() {
  pdes::Partition& control = engine_.partition(0);
  const std::int64_t nextOrderNs = drainCursor_ < drainSchedule_.size()
                                       ? drainSchedule_[drainCursor_].first
                                       : kInfNs;
  const TimePoint floor = TimePoint::fromNanos(
      std::max(nextOrderNs, control.sim().now().toNanos()));
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    control.promiseNoSendBefore(partitionOf(s), floor);
  }
}

void PartitionedCluster::promiseShardLinks(std::uint32_t s) {
  pdes::Partition& part = engine_.partition(partitionOf(s));
  const std::int64_t nowNs = part.sim().now().toNanos();
  const std::int64_t drainFloor =
      shardDrainCursor_[s] < shardDrainNs_[s].size()
          ? shardDrainNs_[s][shardDrainCursor_[s]]
          : kInfNs;
  const auto shardCount = static_cast<std::uint32_t>(shards_.size());
  const std::uint32_t ghostTarget = (s + 1) % shardCount;
  part.promiseNoSendBefore(0, TimePoint::fromNanos(std::max(drainFloor, nowNs)));
  for (std::uint32_t t = 0; t < shardCount; ++t) {
    if (t == s) continue;
    std::int64_t floorNs = drainFloor;
    if (ghostActive() && t == ghostTarget) {
      floorNs = std::min(floorNs, shards_[s].nextGhostTickNs);
    }
    part.promiseNoSendBefore(partitionOf(t),
                             TimePoint::fromNanos(std::max(floorNs, nowNs)));
  }
}

// ---- migration protocol -----------------------------------------------------

void PartitionedCluster::controlDrain(std::uint32_t source) {
  // This order leaves the unprocessed schedule whatever happens below, and
  // the promise floor must reflect that before control's window closes.
  ++drainCursor_;
  if (!accepting_[source]) {
    promiseControlLinks();
    return;
  }
  accepting_[source] = false;
  // Least-assigned accepting target, lowest id on ties (the gateway's
  // migration probe, expressed on the control book).
  const auto shardCount = static_cast<std::uint32_t>(shards_.size());
  std::uint32_t target = shardCount;
  for (std::uint32_t s = 0; s < shardCount; ++s) {
    if (s == source || !accepting_[s]) continue;
    if (target == shardCount || assigned_[s] < assigned_[target]) target = s;
  }
  if (target == shardCount) {
    promiseControlLinks();
    return;  // nowhere to move the room
  }
  assigned_[target] += assigned_[source];
  assigned_[source] = 0;

  pdes::Partition& control = engine_.partition(0);
  const Duration toSource = engine_.lookahead(0, partitionOf(source));
  control.send(partitionOf(source), control.sim().now() + toSource,
               [this, source, target] { sourceExport(source, target); });
  promiseControlLinks();
}

void PartitionedCluster::sourceExport(std::uint32_t source,
                                      std::uint32_t target) {
  if (shardDrainCursor_[source] < shardDrainNs_[source].size()) {
    ++shardDrainCursor_[source];
  }
  Shard& shard = shards_[source];
  shard.inst->beginDrain();
  // Empty the source immediately; in-flight deliveries survive the leave,
  // so the zero-loss ledger stays exact.
  auto snap = std::make_shared<RelayRoomSnapshot>(shard.inst->evacuate());
  shard.inst->stop();
  if (snap->users.empty()) {
    promiseShardLinks(source);
    return;
  }

  // Second hop: the snapshot rides the direct link straight to the target.
  pdes::Partition& part = engine_.partition(partitionOf(source));
  part.send(partitionOf(target),
            part.sim().now() +
                engine_.lookahead(partitionOf(source), partitionOf(target)),
            [this, snap, target] { importMigration(target, snap); });
  promiseShardLinks(source);
}

void PartitionedCluster::importMigration(
    std::uint32_t target, const std::shared_ptr<RelayRoomSnapshot>& snap) {
  Shard& shard = shards_[target];
  // At 1M-user scale an import can double a shard; adopt() pre-sizes for
  // the merged population first.
  shard.inst->adopt(*snap);
  ++shard.migrationsIn;
  shard.migratedUsersIn += snap->users.size();
}

// ---- pacing -----------------------------------------------------------------

void PartitionedCluster::paceShard(std::uint32_t s) {
  Shard& shard = shards_[s];
  const std::int64_t nowNs =
      engine_.partition(partitionOf(s)).sim().now().toNanos();
  const bool ghosting = ghostActive();
  if (shard.inst->userCount() >= 2) {
    shard.idsScratch = shard.inst->room().userIds();
    // Expected deliveries come from the room's own forward ledger, so the
    // zero-loss invariant holds for interest-scoped fan-out too (the grid
    // decides the receiver set, not the sender count).
    const std::uint64_t forwardedBefore =
        shard.inst->room().forwardedMessages();
    Message update = cfg_.updateProto;
    for (const std::uint64_t id : shard.idsScratch) {
      update.senderId = id;
      update.sequence = ++shard.seq;
      shard.inst->room().broadcast(id, update);
      ++shard.broadcasts;
    }
    shard.expected +=
        shard.inst->room().forwardedMessages() - forwardedBefore;

    if (ghosting) {
      // Interest-scoped forwarding: ghost the avatars near this shard's
      // portal point (the lattice origin) to the ring-next shard. The
      // receiving fold is auditNoted so ghost payloads are digest-pinned.
      std::uint64_t count = 0;
      std::uint64_t fold = 0;
      shard.inst->room().forEachNearby(
          0.0, 0.0, cfg_.ghostRadiusM,
          [&](std::uint64_t id, double, double) {
            ++count;
            fold = audit::combine(fold, id);
          });
      if (count > 0) {
        const auto shardCount = static_cast<std::uint32_t>(shards_.size());
        const std::uint32_t t = (s + 1) % shardCount;
        shard.ghostsSent += count;
        pdes::Partition& part = engine_.partition(partitionOf(s));
        part.send(partitionOf(t),
                  part.sim().now() +
                      engine_.lookahead(partitionOf(s), partitionOf(t)),
                  [this, t, count, fold] {
                    shards_[t].ghostsReceived += count;
                    engine_.partition(partitionOf(t))
                        .sim()
                        .auditNote(audit::combine(fold, count));
                  });
      }
    }
  }
  if (ghosting) {
    shard.nextGhostTickNs = nowNs + pacePeriodNs_;
    promiseShardLinks(s);
  }
}

PartitionedClusterStats PartitionedCluster::run(Duration measure,
                                                Duration slack) {
  const Duration period = Duration::seconds(1.0 / cfg_.updateRateHz);
  pacePeriodNs_ = period.toNanos();
  const TimePoint stopAt = TimePoint::epoch() + measure;

  // Arm the promise choreography before anything runs: sort the drain
  // schedule into execution order (stable on ties, matching the control
  // sim's schedule-seq order) and derive every initial floor.
  std::stable_sort(
      drainSchedule_.begin(), drainSchedule_.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& arrivals : shardDrainNs_) arrivals.clear();
  for (const auto& [atNs, shard] : drainSchedule_) {
    shardDrainNs_[shard].push_back(
        atNs + engine_.lookahead(0, partitionOf(shard)).toNanos());
  }
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    shards_[s].nextGhostTickNs = ghostActive() ? pacePeriodNs_ : kInfNs;
  }
  promiseControlLinks();
  for (std::uint32_t s = 0; s < shards_.size(); ++s) promiseShardLinks(s);

  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    Simulator& sim = engine_.partition(partitionOf(s)).sim();
    shard.pacer =
        std::make_unique<PeriodicTask>(sim, period, [this, s] { paceShard(s); });
    // Pace over the half-open window [0, stopAt). This stop event is
    // scheduled now, before the tick one period earlier arms the tick that
    // lands on stopAt, so it carries the smaller seq and runs first: the
    // edge tick never fires. The shard's load sampler stops with it, so
    // once the in-flight tail has landed the partition is idle. Stopping
    // also retires the ghost lane's promise floor.
    PeriodicTask* pacer = shard.pacer.get();
    sim.schedule(stopAt, [this, s, pacer] {
      pacer->stop();
      shards_[s].inst->stop();
      if (ghostActive()) {
        shards_[s].nextGhostTickNs = kInfNs;
        promiseShardLinks(s);
      }
    });
  }

  // Once the window closes nothing recurs, so the engine runs to idle: the
  // run ends at the instant of the last delivery, however far past the
  // window RelayRoom::sampleProcessingDelay's room-size term, queueCoefMs ·
  // (n−2)^1.5, pushed it (≈1,953 s at 15,625 users per shard). `slack` is
  // only a floor on that end instant.
  PartitionedClusterStats stats;
  stats.engine = engine_.run();
  const TimePoint end = stopAt + slack;
  if (engine_.partition(0).sim().now() < end) (void)engine_.run(end);

  const double windowCapacity =
      measure.toSeconds() * cfg_.capacity.forwardCapacityPerSec();
  for (const Shard& shard : shards_) {
    stats.broadcasts += shard.broadcasts;
    stats.expectedDeliveries += shard.expected;
    stats.delivered += shard.delivered;
    stats.migrations += shard.migrationsIn;
    stats.migratedUsers += shard.migratedUsersIn;
    stats.ghostsSent += shard.ghostsSent;
    stats.ghostsReceived += shard.ghostsReceived;
    stats.usersPerShard.push_back(shard.inst->userCount());
    const std::uint64_t forwards = shard.inst->room().forwardedMessages();
    stats.forwardsPerShard.push_back(forwards);
    if (windowCapacity > 0.0) {
      stats.maxUtilization = std::max(
          stats.maxUtilization, static_cast<double>(forwards) / windowCapacity);
    }
  }
  stats.migrationHops = 2 * stats.migrations;
  return stats;
}

}  // namespace msim::cluster
