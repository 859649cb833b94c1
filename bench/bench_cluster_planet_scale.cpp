// Planet-scale extrapolation: 10,000 users sharded across a relay cluster.
//
// The paper stops at 28 users on one relay machine and asks whether the
// metaverse vision — "thousands of users in one world" — survives the
// measured per-server scaling walls (§6, §7, §9). This bench answers with
// the architecture real platforms use (§4.2): many relay instances behind a
// control plane that places users and brokers drains. Each instance stays
// inside the regime the paper measured (hundreds of users, linear fan-out),
// a mid-run drain of the last shard exercises live room migration at scale,
// and every run asserts zero delivery loss.
//
// Every mode runs the same runtime, the PDES-partitioned cluster
// (cluster/partitioned.hpp): one partition per shard plus a control
// partition, with audit digests byte-identical for any worker count.
//   MSIM_CLUSTER_USERS      total users          (default 10000)
//   MSIM_CLUSTER_INSTANCES  shard count          (default 32)
//
// Default mode: a seed sweep (MSIM_SEEDS, default 3) of 10 Hz all-to-all
// avatar updates. Each run's engine leases whatever workers the sweep
// leaves, and the sweep merges in seed order, so the report (and the digest
// it prints) is byte-identical for any MSIM_THREADS. The per-instance check
// compares per-user downlink on the shards the drain did not touch with a
// single relay room at one shard's occupancy.
//
// Threads-sweep mode (`--threads-sweep` or MSIM_PDES_SWEEP=1): ONE seed of
// the same workload at 1/2/4/8 engine workers.
//
// Million mode (`--million` or MSIM_PDES_MILLION=1): the headline run —
// 1,000,000 users on >= 64 shard partitions (the knobs above still
// override, which is how CI smokes a scaled copy) at 2 Hz, on the
// direct-link mesh with adaptive barrier windows, an interest-grid lattice
// population (all-to-all fan-out is physically impossible at 15k+ users per
// shard — AOI scoping is what makes the room sizes meaningful, see
// DESIGN.md §11), and interest-scoped ghost forwarding between ring
// neighbours. Rooms and grid cells are bulk pre-reserved before any user
// joins, so setup does one allocation pass instead of a million rehashes.
//
// Both worker-row modes run the first worker count once, untimed, before
// the timed rows, so no row pays the process's cold start and the speedups
// compare warm runs. They report setup and wall seconds, events/s-per-core,
// speedup, and per row the user/sys CPU seconds and minor faults of set-up +
// run, the resident set at the end of the run, and peak RSS (VmHWM — a
// process-wide high-water mark, so the headline number is the final row's;
// the per-row resident set shows whether a row itself holds more), emit a
// benchmark JSON (stdout, plus
// MSIM_PDES_JSON=<path> to write a file) whose context records the host
// core count and CPU model, and exit nonzero unless the audit digest is
// byte-identical across the worker counts, zero deliveries were lost, and
// the ghost ledger balances exactly.

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "avatar/codec.hpp"
#include "avatar/spec.hpp"
#include "cluster/partitioned.hpp"
#include "common.hpp"
#include "core/seedsweep.hpp"

using namespace msim;
using namespace msim::cluster;

namespace {

int envInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string fmtD(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// detlint:allow(wall-clock) measures the bench harness's own wall time on the host — speedup is the quantity under test and never feeds simulated behaviour
using WallClock = std::chrono::steady_clock;

double secondsSince(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

std::string cpuModel() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

/// A /proc/self/status memory field ("VmHWM:", "VmRSS:") in MB.
double statusMb(const std::string& key) {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::atof(line.c_str() + key.size()) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// Process CPU seconds and minor faults so far, summed over all threads.
struct ProcCounters {
  double userS{0.0};
  double sysS{0.0};
  long minflt{0};
};

ProcCounters procCounters() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime), ru.ru_minflt};
}

/// The planet-scale workload: every resident sends a pose update at the
/// avatar rate (10 Hz) to every other resident of its shard.
PartitionedClusterConfig clusterConfig(std::uint64_t seed, int users,
                                       int shards) {
  PartitionedClusterConfig cfg;
  cfg.seed = seed;
  cfg.users = users;
  cfg.shards = shards;
  const AvatarSpec avatar;
  cfg.updateProto.kind = avatarmsg::kPoseUpdate;
  cfg.updateProto.size = avatar.bytesPerUpdate;
  cfg.updateRateHz = avatar.updateRateHz;
  return cfg;
}

struct Row {
  unsigned threads{0};
  double setupSeconds{0.0};
  double wallSeconds{0.0};
  PartitionedClusterStats stats;
  std::uint64_t digest{0};
  // Process counters over set-up + run (teardown excluded). The peak is
  // VmHWM, a process-wide high-water mark that only ever rises, so a row's
  // value is bounded below by every earlier run's; rssMb (VmRSS at the end
  // of the run, before teardown) is the row's own live footprint.
  double peakRssMb{0.0};
  double rssMb{0.0};
  ProcCounters proc;
};

/// One run: build the cluster, drain the last shard halfway through the
/// window, pace over [0, measure), settle the tail.
Row runOnce(PartitionedClusterConfig cfg, unsigned threads, Duration measure) {
  cfg.threads = threads;
  const auto lastShard = static_cast<std::uint32_t>(cfg.shards - 1);
  Row row;
  row.threads = threads;
  const ProcCounters p0 = procCounters();
  const WallClock::time_point s0 = WallClock::now();
  PartitionedCluster run{std::move(cfg)};
  row.setupSeconds = secondsSince(s0);
  run.scheduleDrain(lastShard, TimePoint::epoch() + measure * 0.5);
  const WallClock::time_point t0 = WallClock::now();
  row.stats = run.run(measure, Duration::seconds(5));
  row.wallSeconds = secondsSince(t0);
  row.digest = run.digest();
  const ProcCounters p1 = procCounters();
  row.proc = {p1.userS - p0.userS, p1.sysS - p0.sysS, p1.minflt - p0.minflt};
  row.peakRssMb = statusMb("VmHWM:");
  row.rssMb = statusMb("VmRSS:");
  return row;
}

// ---- worker rows (threads sweep, million) -----------------------------------

int runWorkerRows(const std::string& title, const std::string& reproduces,
                  const std::string& benchName,
                  const PartitionedClusterConfig& cfg,
                  const std::vector<unsigned>& counts, Duration measure) {
  bench::header(title, reproduces);
  const unsigned hostCores = std::thread::hardware_concurrency();
  std::string countList;
  for (const unsigned n : counts) {
    countList += (countList.empty() ? "" : ",") + std::to_string(n);
  }

  (void)runOnce(cfg, counts.front(), measure);  // untimed warm-up
  std::vector<Row> rows;
  rows.reserve(counts.size());
  for (const unsigned n : counts) {
    rows.push_back(runOnce(cfg, n, measure));
    const Row& r = rows.back();
    std::printf("  [%u worker%s] wall %.3fs (+%.3fs setup), %" PRIu64
                " events, %" PRIu64 " rounds, RSS %.0f MB, peak RSS %.0f MB\n",
                r.threads, r.threads == 1 ? "" : "s", r.wallSeconds,
                r.setupSeconds, r.stats.engine.eventsExecuted,
                r.stats.engine.rounds, r.rssMb, r.peakRssMb);
  }

  const double base = rows.front().wallSeconds;
  const auto speedup = [base](const Row& r) {
    return r.wallSeconds > 0.0 ? base / r.wallSeconds : 0.0;
  };
  const auto perSec = [](const Row& r) {
    return r.wallSeconds > 0.0
               ? static_cast<double>(r.stats.engine.eventsExecuted) /
                     r.wallSeconds
               : 0.0;
  };
  TablePrinter table{{"threads", "setup s", "wall s", "speedup", "events/s",
                      "events/s/core", "rounds", "coalesced", "user s", "sys s",
                      "minflt", "RSS MB", "peak RSS MB", "digest"}};
  bool digestsMatch = true;
  bool ledgerBalanced = true;
  std::uint64_t lostTotal = 0;
  std::string json = "{\n  \"context\": {\n";
  json += "    \"host_cores\": " + std::to_string(hostCores) + ",\n";
  json += "    \"cpu_model\": \"" + cpuModel() + "\",\n";
  json += "    \"users\": " + std::to_string(cfg.users) + ",\n";
  json += "    \"shards\": " + std::to_string(cfg.shards) + ",\n";
  json += "    \"measure_s\": " + fmtD(measure.toSeconds(), 1) + "\n  },\n";
  json += "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const pdes::RunReport& e = r.stats.engine;
    digestsMatch = digestsMatch && r.digest == rows.front().digest;
    ledgerBalanced =
        ledgerBalanced && r.stats.ghostsSent == r.stats.ghostsReceived;
    lostTotal += r.stats.expectedDeliveries - r.stats.delivered;
    table.addRow({std::to_string(r.threads), fmtD(r.setupSeconds, 3),
                  fmtD(r.wallSeconds, 3), fmtD(speedup(r), 2),
                  fmtD(perSec(r) / 1e6, 3) + "M",
                  fmtD(perSec(r) / 1e6 / r.threads, 3) + "M",
                  std::to_string(e.rounds), std::to_string(e.coalescedWindows),
                  fmtD(r.proc.userS, 2), fmtD(r.proc.sysS, 2),
                  std::to_string(r.proc.minflt), fmtD(r.rssMb, 0),
                  fmtD(r.peakRssMb, 0), hex(r.digest)});
    json += "    {\"name\": \"" + benchName + "/threads:" +
            std::to_string(r.threads) + "\", \"real_time\": " +
            fmtD(r.wallSeconds, 6) + ", \"time_unit\": \"s\", " +
            "\"setup_s\": " + fmtD(r.setupSeconds, 6) + ", " +
            "\"items_per_second\": " + fmtD(perSec(r), 1) + ", " +
            "\"events_per_second_per_core\": " +
            fmtD(perSec(r) / r.threads, 1) +
            ", \"speedup\": " + fmtD(speedup(r), 3) +
            ", \"rounds\": " + std::to_string(e.rounds) +
            ", \"coalesced_windows\": " + std::to_string(e.coalescedWindows) +
            ", \"user_s\": " + fmtD(r.proc.userS, 3) +
            ", \"sys_s\": " + fmtD(r.proc.sysS, 3) +
            ", \"minflt\": " + std::to_string(r.proc.minflt) +
            ", \"rss_mb\": " + fmtD(r.rssMb, 1) +
            ", \"peak_rss_mb\": " + fmtD(r.peakRssMb, 1) + ", \"digest\": \"" +
            hex(r.digest) + "\"}";
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  table.print(std::cout);

  const PartitionedClusterStats& first = rows.front().stats;
  const Row& last = rows.back();
  std::printf("\ndigest check: %s across {%s} workers\n",
              digestsMatch ? "byte-identical" : "DIVERGED", countList.c_str());
  std::printf("zero-loss check: %" PRIu64 " deliveries lost (must be 0)\n",
              lostTotal);
  std::printf("ghost ledger: %" PRIu64 " sent / %" PRIu64 " received (%s)\n",
              first.ghostsSent, first.ghostsReceived,
              ledgerBalanced ? "balanced" : "IMBALANCED");
  std::printf("drain: %" PRIu64 " users migrated in %" PRIu64
              " cross-partition hops (2 per direct-link migration)\n",
              first.migratedUsers, first.migrationHops);
  std::printf("speedup at %u workers: %.2fx on a %u-core host\n", last.threads,
              speedup(last), hostCores);
  std::printf("peak RSS: %.0f MB for %d users (%.1f KB/user)\n",
              last.peakRssMb, cfg.users,
              last.peakRssMb * 1024.0 / static_cast<double>(cfg.users));

  std::printf("\n%s", json.c_str());
  if (const char* path = std::getenv("MSIM_PDES_JSON")) {
    std::ofstream out{path};
    out << json;
    std::printf("wrote %s\n", path);
  }
  return digestsMatch && ledgerBalanced && lostTotal == 0 ? 0 : 1;
}

// ---- default mode (seed sweep) ----------------------------------------------

// A single relay room at one shard's occupancy, driven identically — the
// paper's measurement setting, scaled to the cluster's per-instance regime.
// The stop event is scheduled before the tick one period earlier arms the
// edge tick, so it runs first: the same half-open window [0, measure) the
// cluster paces over.
double singleRelayPerUserMbps(std::uint64_t seed, int users, Duration measure) {
  Simulator sim{seed};
  RelayRoom room{sim, DataSpec{}};
  room.reserveUsers(static_cast<std::size_t>(users));
  for (int i = 0; i < users; ++i) {
    room.joinDetached(static_cast<std::uint64_t>(i + 1));
  }
  const AvatarSpec avatar;
  Message pose;
  pose.kind = avatarmsg::kPoseUpdate;
  pose.size = avatar.bytesPerUpdate;
  std::uint64_t seq = 0;
  PeriodicTask pacer{sim, Duration::seconds(1.0 / avatar.updateRateHz), [&] {
                       for (int i = 0; i < users; ++i) {
                         pose.senderId = static_cast<std::uint64_t>(i + 1);
                         pose.sequence = ++seq;
                         room.broadcast(pose.senderId, pose);
                       }
                     }};
  sim.schedule(TimePoint::epoch() + measure, [&pacer] { pacer.stop(); });
  sim.runFor(measure);
  return static_cast<double>(room.forwardedMessages()) *
         static_cast<double>(pose.size.toBits()) / measure.toSeconds() /
         static_cast<double>(users) / 1e6;
}

int runSeedSweepMode(int users, int shards) {
  const int seeds = bench::seedCount(3);
  const Duration measure = bench::measureWindow(10.0);
  bench::header(
      "Planet scale — " + std::to_string(users) + " users on " +
          std::to_string(shards) + " relay instances",
      "§9 extrapolation beyond Fig. 7/9's single-relay wall; " +
          std::to_string(seeds) + " seeds, " +
          std::to_string(static_cast<int>(measure.toSeconds())) + " s window");

  const auto runs = runSeedSweep(
      defaultSeeds(seeds), [users, shards, measure](std::uint64_t seed) {
        return runOnce(clusterConfig(seed, users, shards), 0, measure);
      });

  // Per-user downlink from shards the drain did not touch: the drained
  // source ends empty and the target runs at double occupancy, so only the
  // shards left at exactly perShard users compare with a steady
  // single-relay room.
  const std::size_t perShard =
      (static_cast<std::size_t>(users) + shards - 1) /
      static_cast<std::size_t>(shards);
  const double updateBits =
      static_cast<double>(AvatarSpec{}.bytesPerUpdate.toBits());
  std::string report;
  TablePrinter table{{"seed#", "broadcasts", "delivered", "lost", "migrated",
                      "max util", "per-user down Mbps", "audit digest"}};
  std::uint64_t lostTotal = 0;
  double downMean = 0.0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const PartitionedClusterStats& st = runs[i].stats;
    const std::uint64_t lost = st.expectedDeliveries - st.delivered;
    lostTotal += lost;
    double downSum = 0.0;
    std::size_t counted = 0;
    for (std::size_t s = 0; s < st.usersPerShard.size(); ++s) {
      if (st.usersPerShard[s] != perShard) continue;
      downSum += static_cast<double>(st.forwardsPerShard[s]) * updateBits /
                 measure.toSeconds() / static_cast<double>(perShard);
      counted += 1;
    }
    const double down = counted > 0 ? downSum / counted / 1e6 : 0.0;
    downMean += down;
    table.addRow({std::to_string(i), std::to_string(st.broadcasts),
                  std::to_string(st.delivered), std::to_string(lost),
                  std::to_string(st.migratedUsers),
                  fmtD(st.maxUtilization, 3), fmtD(down, 3),
                  hex(runs[i].digest)});
    report += std::to_string(st.broadcasts) + "," +
              std::to_string(st.delivered) + "," + std::to_string(lost) + "," +
              std::to_string(st.migratedUsers) + "," +
              fmtD(st.maxUtilization, 6) + "," + hex(runs[i].digest) + ";";
    for (const std::size_t u : st.usersPerShard) {
      report += std::to_string(u) + " ";
    }
    for (const std::uint64_t f : st.forwardsPerShard) {
      report += std::to_string(f) + " ";
    }
    report += "\n";
  }
  downMean /= static_cast<double>(runs.size());
  table.print(std::cout);

  // Per-instance regime vs the single-relay baseline the paper measured.
  const double single = singleRelayPerUserMbps(
      defaultSeeds(1)[0], static_cast<int>(perShard), measure);
  const double deltaPct =
      single > 0.0 ? 100.0 * (downMean - single) / single : 0.0;
  std::printf(
      "\nper-instance check: cluster %.3f Mbps/user vs single relay at "
      "%zu users %.3f Mbps/user (%+.2f%%)\n",
      downMean, perShard, single, deltaPct);
  std::printf("zero-loss check: %" PRIu64
              " deliveries lost across all seeds (must be 0 across drains)\n",
              lostTotal);
  std::printf("report digest: %016" PRIx64
              "  (byte-identical for any MSIM_THREADS)\n",
              fnv1a(report));
  std::printf(
      "\npaper checkpoints: each instance stays on Fig. 7's linear per-user\n"
      "downlink at its own occupancy — the cluster breaks the aggregate\n"
      "scaling wall (§6) without changing what any single user experiences;\n"
      "a drained shard hands its room over live, losing nothing (§4.2's\n"
      "elastic serving tier, made explicit).\n");
  return lostTotal == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool sweep = envInt("MSIM_PDES_SWEEP", 0) > 0;
  bool million = envInt("MSIM_PDES_MILLION", 0) > 0;
  for (int i = 1; i < argc; ++i) {
    if (std::string{argv[i]} == "--threads-sweep") sweep = true;
    if (std::string{argv[i]} == "--million") million = true;
  }
  if (million) {
    // 1M users over 64 shards unless overridden (CI smokes a scaled copy);
    // the window is short because the event rate, not the horizon, is the
    // quantity under test.
    PartitionedClusterConfig cfg =
        clusterConfig(defaultSeeds(1)[0], envInt("MSIM_CLUSTER_USERS", 1000000),
                      envInt("MSIM_CLUSTER_INSTANCES", 64));
    // ~2 Hz: the decimated cadence interest management leaves for the bulk
    // of a huge room (full-rate neighbours are the AOI's job, not the
    // pacer's).
    cfg.updateRateHz = 2.0;
    cfg.dataSpec.interestGrid = true;
    cfg.dataSpec.interestCellM = 8.0;
    cfg.dataSpec.interestRadiusM = 8.0;      // lattice ring: ~12 neighbours
    cfg.dataSpec.interestFullRadiusM = 8.0;  // all of them at full rate
    cfg.latticeSpacingM = 4.0;  // 4 users per 8 m AOI cell, pre-reservable
    cfg.interestForwarding = true;  // ghosts within ghostRadiusM (25 m)
    return runWorkerRows(
        "Million-user partitioned run — " + std::to_string(cfg.users) +
            " users on " + std::to_string(cfg.shards) + " shard partitions",
        "direct links + adaptive windows + AOI lattice; digest must be "
        "byte-identical across {1,2,8} workers with zero lost deliveries",
        "BM_ClusterPdesMillion", cfg, {1, 2, 8}, bench::measureWindow(1.0));
  }
  const int users = envInt("MSIM_CLUSTER_USERS", 10000);
  const int shards = envInt("MSIM_CLUSTER_INSTANCES", 32);
  if (sweep) {
    return runWorkerRows(
        "Planet scale, PDES threads sweep — " + std::to_string(users) +
            " users on " + std::to_string(shards) + " shard partitions",
        "one run split across per-shard logical processes; digest must be "
        "byte-identical at every worker count",
        "BM_ClusterPdes", clusterConfig(defaultSeeds(1)[0], users, shards),
        {1, 2, 4, 8}, bench::measureWindow(10.0));
  }
  return runSeedSweepMode(users, shards);
}
