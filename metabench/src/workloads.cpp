#include "workloads.hpp"

#include <algorithm>
#include <memory>

#include "avatar/codec.hpp"
#include "avatar/spec.hpp"
#include "cluster/partitioned.hpp"
#include "cluster/sessions.hpp"
#include "core/experiments.hpp"
#include "core/testbed.hpp"
#include "platform/spec.hpp"

namespace metabench {

using namespace msim;

namespace {

/// Runs `sim` up to `until` one simulated second at a time, sampling host
/// ms per simulated second and the overflow tier's population at every
/// boundary. Slicing does not change dispatch order: run(limit) executes
/// every event at or before the limit, then the next slice resumes.
void runSliced(Simulator& sim, TimePoint until, RepResult& r) {
  double& overflowPeak = r.layer["sim.overflow_peak"];
  while (sim.now() < until) {
    const TimePoint next = std::min(sim.now() + Duration::seconds(1), until);
    const Clock::time_point t0 = Clock::now();
    sim.run(next);
    r.msPerSimSecond.push_back(secondsSince(t0) * 1e3);
    overflowPeak =
        std::max(overflowPeak, static_cast<double>(sim.overflowEvents()));
  }
}

/// Times `fn` as the set-up (`isSetup`) or run phase of `r`.
template <typename Fn>
void timed(RepResult& r, bool isSetup, Fn&& fn) {
  const ProcUsage u0 = ProcUsage::now();
  const Clock::time_point t0 = Clock::now();
  fn();
  (isSetup ? r.setupS : r.runS) = secondsSince(t0);
  (isSetup ? r.setupUsage : r.runUsage) = ProcUsage::now() - u0;
}

void simLayer(RepResult& r, std::uint64_t events, std::uint64_t cascades,
              double simulatedS) {
  r.layer["sim.events"] = static_cast<double>(events);
  r.layer["sim.simulated_s"] = simulatedS;
  r.layer["sim.cascades"] = static_cast<double>(cascades);
  r.layer["sim.ns_per_event"] =
      events > 0 ? r.runS * 1e9 / static_cast<double>(events) : 0.0;
  r.exact["sim.events"] = events;
}

// ---- paper_room ------------------------------------------------------------
// The paper's own setting: one VRChat event, users joining one by one, every
// packet through the headset/AP/campus/internet stack and the relay.

constexpr int kRoomUsers = 20;
const Duration kRoomJoinStart = Duration::seconds(2);
const Duration kRoomJoinGap = Duration::millis(500);
const Duration kRoomSteady = Duration::seconds(60);

RepResult paperRoom(const RepParams& p, Tracer& tr) {
  RepResult r;
  std::unique_ptr<Testbed> bed;
  const TimePoint steadyFrom =
      TimePoint::epoch() + kRoomJoinStart + kRoomJoinGap * kRoomUsers;
  const TimePoint end = steadyFrom + kRoomSteady;

  timed(r, true, [&] {
    Tracer::Span setup{tr, "setup"};
    bed = std::make_unique<Testbed>(p.seed);
    bed->sim().enableAudit();
    {
      Tracer::Span s{tr, "setup.deploy"};
      bed->deploy(platforms::vrchat());
    }
    Tracer::Span s{tr, "setup.users"};
    TestUserConfig user;
    user.muted = true;
    user.wander = false;
    for (int i = 0; i < kRoomUsers; ++i) {
      // Capture still classifies and bins every packet; keeping each record
      // too would make peak RSS follow vector-doubling steps (≈63k records
      // per user sit at the 65536 boundary, so it jumped with the seed).
      bed->addUser(user).capture->setStoreRecords(false);
    }
    arrangeUsersForSweep(*bed);
    Testbed* b = bed.get();
    bed->sim().schedule(TimePoint::epoch(), [b] {
      for (auto& u : b->users()) u->client->launch();
    });
    for (int i = 0; i < kRoomUsers; ++i) {
      bed->sim().schedule(TimePoint::epoch() + kRoomJoinStart + kRoomJoinGap * i,
                          [b, i] { b->user(static_cast<std::size_t>(i))
                                       .client->joinEvent(); });
    }
  });
  if (p.setupOnly) return r;

  Simulator& sim = bed->sim();
  timed(r, false, [&] {
    Tracer::Span run{tr, "run"};
    {
      Tracer::Span s{tr, "run.join"};
      runSliced(sim, steadyFrom, r);
    }
    Tracer::Span s{tr, "run.steady"};
    runSliced(sim, end, r);
  });

  const std::uint64_t forwarded = bed->deployment().room()->forwardedMessages();
  std::uint64_t missed = 0;
  std::uint64_t captured = 0;
  std::size_t inEvent = 0;
  std::size_t seesEveryone = 0;
  double fps = 0.0;
  double staleFps = 0.0;
  for (const auto& u : bed->users()) {
    missed += u->client->missedUpdates();
    captured += u->capture->packetCount();
    if (u->client->phase() == ClientPhase::InEvent && !u->client->eventFull()) {
      ++inEvent;
    }
    if (u->client->remoteAvatars().size() == kRoomUsers - 1) ++seesEveryone;
    const MetricsSample m = u->headset->metrics().averageOver(steadyFrom, end);
    fps += m.fps / kRoomUsers;
    staleFps += m.staleFramesPerSec / kRoomUsers;
  }
  r.digest = sim.auditDigest();
  r.attempted = forwarded;
  r.failed = missed;
  r.check(missed == 0, "paper_room: receivers detected missing pose updates");
  r.check(inEvent == kRoomUsers, "paper_room: a user is not in the event");
  r.check(seesEveryone == kRoomUsers,
          "paper_room: a user does not see every other avatar");
  r.check(forwarded > 0 && captured > 0 && fps > 0.0,
          "paper_room: no relay traffic, captured packets or frames");

  simLayer(r, sim.executedEvents(), sim.cascades(), sim.now().toSeconds());
  r.layer["platform.forwarded_msgs"] = static_cast<double>(forwarded);
  r.layer["net.packets_captured"] = static_cast<double>(captured);
  r.layer["client.fps_mean"] = fps;
  r.layer["client.stale_fps_mean"] = staleFps;
  r.exact["platform.forwarded_msgs"] = forwarded;
  r.exact["net.packets_captured"] = captured;
  return r;
}

// ---- aoi_million -------------------------------------------------------------
// One PartitionedCluster on the PDES engine; the last shard drains halfway.

const Duration kClusterSlack = Duration::seconds(5);

RepResult clusterRun(cluster::PartitionedClusterConfig cfg, Duration measure,
                     const RepParams& p, Tracer& tr) {
  RepResult r;
  cfg.seed = p.seed;
  cfg.threads = p.workers;
  const auto lastShard = static_cast<std::uint32_t>(cfg.shards - 1);
  std::unique_ptr<cluster::PartitionedCluster> run;
  cluster::PartitionedClusterStats stats;

  timed(r, true, [&] {
    Tracer::Span setup{tr, "setup"};
    {
      Tracer::Span s{tr, "setup.engine"};
      run = std::make_unique<cluster::PartitionedCluster>(std::move(cfg));
    }
    run->scheduleDrain(lastShard, TimePoint::epoch() + measure * 0.5);
  });
  if (p.setupOnly) return r;
  timed(r, false, [&] {
    Tracer::Span span{tr, "run"};
    Tracer::Span s{tr, "run.engine"};
    stats = run->run(measure, kClusterSlack);
  });

  pdes::Engine& engine = run->engine();
  std::uint64_t cascades = 0;
  std::uint64_t overflow = 0;
  std::uint64_t maxEvents = 0;
  for (std::uint32_t i = 0; i < engine.partitionCount(); ++i) {
    const Simulator& sim = engine.partition(i).sim();
    cascades += sim.cascades();
    overflow += sim.overflowEvents();
    maxEvents = std::max<std::uint64_t>(maxEvents, sim.executedEvents());
  }
  const double simSeconds = engine.partition(0).sim().now().toSeconds();
  std::uint64_t forwarded = 0;
  for (const std::uint64_t f : stats.forwardsPerShard) forwarded += f;
  const pdes::RunReport& rep = stats.engine;

  r.digest = run->digest();
  r.attempted = stats.expectedDeliveries + stats.ghostsSent;
  r.failed = (stats.expectedDeliveries - stats.delivered) +
             (stats.ghostsSent - stats.ghostsReceived);
  r.check(stats.delivered == stats.expectedDeliveries,
          "cluster: deliveries lost");
  r.check(stats.ghostsSent == stats.ghostsReceived,
          "cluster: ghost ledger does not balance");
  r.check(stats.migratedUsers > 0, "cluster: the drain migrated nobody");

  simLayer(r, rep.eventsExecuted, cascades, simSeconds);
  // The engine owns the event loop here: one whole-run sample, and the
  // overflow population is read once, after the run.
  r.layer["sim.overflow_peak"] = static_cast<double>(overflow);
  if (simSeconds > 0.0) r.msPerSimSecond.push_back(r.runS * 1e3 / simSeconds);
  r.layer["platform.broadcasts"] = static_cast<double>(stats.broadcasts);
  r.layer["platform.deliveries"] = static_cast<double>(stats.delivered);
  r.layer["platform.ns_per_delivery"] =
      stats.delivered > 0 ? r.runS * 1e9 / static_cast<double>(stats.delivered)
                          : 0.0;
  r.layer["platform.max_util"] = stats.maxUtilization;
  r.layer["platform.forwarded_msgs"] = static_cast<double>(forwarded);
  r.layer["pdes.rounds"] = static_cast<double>(rep.rounds);
  r.layer["pdes.coalesced_windows"] = static_cast<double>(rep.coalescedWindows);
  r.layer["pdes.cross_msgs"] = static_cast<double>(rep.messagesDelivered);
  double idleSum = 0.0;
  double idleMax = 0.0;
  for (const double f : rep.idleFraction) {
    idleSum += f;
    idleMax = std::max(idleMax, f);
  }
  r.layer["pdes.idle_fraction_mean"] =
      rep.idleFraction.empty()
          ? 0.0
          : idleSum / static_cast<double>(rep.idleFraction.size());
  r.layer["pdes.idle_fraction_max"] = idleMax;
  r.layer["pdes.event_imbalance"] =
      rep.eventsExecuted > 0
          ? static_cast<double>(maxEvents) * engine.partitionCount() /
                static_cast<double>(rep.eventsExecuted)
          : 0.0;
  r.layer["interest.forwards_per_broadcast"] =
      stats.broadcasts > 0
          ? static_cast<double>(forwarded) / static_cast<double>(stats.broadcasts)
          : 0.0;
  r.layer["cluster.ghosts_sent"] = static_cast<double>(stats.ghostsSent);
  r.layer["cluster.ghosts_received"] = static_cast<double>(stats.ghostsReceived);
  r.layer["cluster.migrated_users"] = static_cast<double>(stats.migratedUsers);
  r.layer["cluster.migration_hops"] = static_cast<double>(stats.migrationHops);
  r.exact["platform.deliveries"] = stats.delivered;
  r.exact["pdes.rounds"] = rep.rounds;
  r.exact["cluster.ghosts_sent"] = stats.ghostsSent;
  r.exact["cluster.migrated_users"] = stats.migratedUsers;

  Tracer::Span teardown{tr, "teardown"};
  run.reset();
  return r;
}

// 1M users on 64 shards with an AOI lattice, interest-scoped ghost
// forwarding and adaptive windows (the simulator's --million setting).
RepResult aoiMillion(const RepParams& p, Tracer& tr) {
  cluster::PartitionedClusterConfig cfg;
  cfg.users = 1000000;
  cfg.shards = 64;
  const AvatarSpec avatar;
  cfg.updateProto.kind = avatarmsg::kPoseUpdate;
  cfg.updateProto.size = avatar.bytesPerUpdate;
  cfg.updateRateHz = 2.0;
  cfg.dataSpec.interestGrid = true;
  cfg.dataSpec.interestCellM = 8.0;
  cfg.dataSpec.interestRadiusM = 8.0;
  cfg.dataSpec.interestFullRadiusM = 8.0;
  cfg.latticeSpacingM = 4.0;
  cfg.directShardLinks = true;
  cfg.adaptiveWindows = true;
  cfg.interestForwarding = true;
  cfg.ghostRadiusM = 25.0;
  return clusterRun(std::move(cfg), Duration::seconds(1), p, tr);
}

// ---- session_storm ----------------------------------------------------------
// runChurnWorkload's crash storm, written against the same public calls so
// that set-up and run are timed apart; canonicalStormDigest() pins the two
// to the same audit digest.

cluster::ChurnWorkloadConfig stormConfig() {
  cluster::ChurnWorkloadConfig cfg;
  cfg.sessions = 20000;
  cfg.shards = 8;
  cfg.channels = 16;
  cfg.connectWindow = Duration::seconds(2);
  cfg.publishStart = Duration::seconds(5);
  cfg.publishEvery = Duration::millis(250);
  cfg.publishUntil = Duration::seconds(45);
  cfg.runFor = Duration::seconds(60);
  cfg.crashAt = Duration::seconds(20);
  cfg.session.pingInterval = Duration::seconds(5);
  cfg.session.maxPingDelay = Duration::seconds(2);
  cfg.session.minReconnectDelay = Duration::millis(200);
  cfg.session.maxReconnectDelay = Duration::seconds(5);
  return cfg;
}

void pumpChannel(Simulator& sim, session::SessionHub& hub,
                 std::uint64_t channel, Duration every, TimePoint until) {
  if (sim.now() > until) return;
  hub.publish(channel, sim.nextId(), /*bytes=*/64);
  Simulator* simp = &sim;
  session::SessionHub* hubp = &hub;
  sim.scheduleAfter(every, [simp, hubp, channel, every, until] {
    pumpChannel(*simp, *hubp, channel, every, until);
  });
}

RepResult sessionStorm(const RepParams& p, Tracer& tr) {
  RepResult r;
  const cluster::ChurnWorkloadConfig cfg = stormConfig();
  std::unique_ptr<Simulator> simOwner;
  std::unique_ptr<cluster::SessionCluster> sc;

  timed(r, true, [&] {
    Tracer::Span setup{tr, "setup"};
    simOwner = std::make_unique<Simulator>(p.seed);
    Simulator& sim = *simOwner;
    Simulator* simp = simOwner.get();
    sim.enableAudit();
    {
      Tracer::Span s{tr, "setup.cluster"};
      cluster::SessionClusterConfig scc;
      scc.cluster.initialInstances = cfg.shards;
      scc.cluster.policy = cluster::PlacementPolicy::LeastLoaded;
      scc.cluster.capacity.softUserCap = cfg.softUserCap;
      scc.session = cfg.session;
      scc.hub.connectCost = cfg.connectCost;
      scc.hub.historyWindow = cfg.historyWindow;
      scc.tokenTtl = cfg.tokenTtl;
      sc = std::make_unique<cluster::SessionCluster>(sim, DataSpec{}, scc);
      sc->reserveSessions(static_cast<std::size_t>(cfg.sessions));
    }
    Tracer::Span s{tr, "setup.sessions"};
    for (int i = 0; i < cfg.sessions; ++i) {
      session::Session& ses =
          sc->addSession(1000 + static_cast<std::uint64_t>(i), regions::usEast());
      ses.subscribe(1 + static_cast<std::uint64_t>(i % cfg.channels));
      ses.setOnMessage([simp](session::Session& self, std::uint64_t channel,
                              std::uint64_t seq, std::uint64_t payload,
                              bool replayed) {
        simp->auditNote(self.userId() ^ (channel << 20) ^ (seq << 28) ^
                        payload ^ (replayed ? 0x8000000000000000ULL : 0));
      });
      const Duration at = Duration::seconds(
          sim.rng().uniform(0.0, cfg.connectWindow.toSeconds()));
      session::Session* sp = &ses;
      sim.scheduleAfter(at, [sp] { sp->connect(); });
    }
    const TimePoint until = TimePoint::epoch() + cfg.publishUntil;
    session::SessionHub* hub = &sc->hub();
    for (int c = 0; c < cfg.channels; ++c) {
      const std::uint64_t channel = 1 + static_cast<std::uint64_t>(c);
      const Duration every = cfg.publishEvery;
      sim.schedule(TimePoint::epoch() + cfg.publishStart,
                   [simp, hub, channel, every, until] {
                     pumpChannel(*simp, *hub, channel, every, until);
                   });
    }
    cluster::SessionCluster* scp = sc.get();
    sim.schedule(TimePoint::epoch() + cfg.crashAt, [scp] {
      scp->sim().auditNote("shard0-crash");
      scp->crashShard(0);
    });
  });
  if (p.setupOnly) return r;

  Simulator& sim = *simOwner;
  timed(r, false, [&] {
    Tracer::Span run{tr, "run"};
    Tracer::Span s{tr, "run.storm"};
    runSliced(sim, TimePoint::epoch() + cfg.runFor, r);
  });

  session::SessionStats total;
  std::uint64_t lost = 0;
  std::size_t connected = 0;
  for (const auto& sp : sc->sessions()) {
    const session::SessionStats& st = sp->stats();
    total.received += st.received;
    total.recovered += st.recovered;
    total.duplicates += st.duplicates;
    total.gaps += st.gaps;
    total.fullRejoins += st.fullRejoins;
    total.connects += st.connects;
    total.reconnects += st.reconnects;
    total.pingTimeouts += st.pingTimeouts;
    if (sp->state() == session::ConnectionState::Connected) ++connected;
    const std::uint64_t channel =
        1 + (sp->userId() - 1000) % static_cast<std::uint64_t>(cfg.channels);
    const std::uint64_t head = sc->hub().broker().headSeq(channel);
    const std::uint64_t cursor = sp->lastSeq(channel);
    lost += head > cursor ? head - cursor : 0;
  }
  const std::uint64_t peakPending = sc->hub().stats().peakPendingConnects;
  const std::uint64_t crashes = sc->manager().stats().crashes;

  r.digest = sim.auditDigest();
  r.attempted = total.received;
  r.failed = lost + total.duplicates + total.gaps;
  r.check(lost == 0 && total.duplicates == 0 && total.gaps == 0,
          "session_storm: not exactly-once (lost, duplicate or gap)");
  r.check(crashes == 1 && total.pingTimeouts > 0 && total.reconnects > 0,
          "session_storm: the crash did not cause a reconnect storm");
  r.check(connected == static_cast<std::size_t>(cfg.sessions),
          "session_storm: a session is not connected at the end");

  simLayer(r, sim.executedEvents(), sim.cascades(), sim.now().toSeconds());
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"session.connects", total.connects},
      {"session.reconnects", total.reconnects},
      {"session.recovered", total.recovered},
      {"session.full_rejoins", total.fullRejoins},
      {"session.ping_timeouts", total.pingTimeouts},
      {"session.peak_pending_connects", peakPending},
  };
  for (const auto& [name, v] : counts) {
    r.layer[name] = static_cast<double>(v);
    r.exact[name] = v;
  }
  r.layer["session.ns_per_message"] =
      total.received > 0 ? r.runS * 1e9 / static_cast<double>(total.received)
                         : 0.0;

  Tracer::Span teardown{tr, "teardown"};
  sc.reset();
  simOwner.reset();
  return r;
}

std::uint64_t canonicalStormDigest(std::uint64_t seed) {
  return cluster::runChurnWorkload(seed, stormConfig()).fingerprint.digest;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper_room", paperRoom, false, nullptr},
      {"aoi_million", aoiMillion, true, nullptr},
      {"session_storm", sessionStorm, false, canonicalStormDigest},
  };
  return all;
}

}  // namespace metabench
