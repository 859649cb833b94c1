// metabench: runs one named workload for a fixed wall-clock budget in this
// process and prints its metrics as the last line of stdout (JSON).
//
//   metabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Untraced (--trace 0): repeated set-up + run of the workload's fixed
// simulated work, each repetition paired with one on the frozen baseline
// simulator (baseline.hpp); reports the medians of live over baseline run
// and CPU time (run_rel, cpu_rel) and of set-up time (setup_s), plus the
// peak RSS of the first (warm-up) repetition. Traced (--trace 1):
// alternates untraced and traced repetitions and reports the per-layer
// metrics, span self times, and the tracing overhead (traced minus untraced
// run_s). Every repetition's
// outputs are checked; so are a held-out second seed, digest identity
// across repetitions, and (aoi_million) digest identity at one and
// at min(4, nproc) engine workers. Exits 1 when any check fails.

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "host.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace metabench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

/// Per-run results and spans, relative to the checkout root.
constexpr const char* kOutDir = ".bench_build/results";

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

/// Input seeds derive from the driver's seed: stream 0 is the measured
/// seed, stream 1 the held-out one.
std::uint64_t inputSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 2 + stream + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

std::string metricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i > 0 ? ", " : "") + quoted(ms[i].name) + ": {\"value\": " +
           num(ms[i].value) + ", \"unit\": " + quoted(ms[i].unit) + "}";
  }
  return out + "}";
}

/// Per-layer metrics reported by a traced run, as BENCHMARK.json lists
/// them. A layer the workload does not exercise reports 0.
struct LayerDef {
  const char* name;
  const char* unit;
};
constexpr LayerDef kLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.cascades", "count"},
    {"sim.overflow_peak", "count"},
    {"sim.simulated_s", "s"},
    {"platform.broadcasts", "count"},
    {"platform.deliveries", "count"},
    {"platform.ns_per_delivery", "ns"},
    {"platform.max_util", "ratio"},
    {"platform.forwarded_msgs", "count"},
    {"pdes.rounds", "count"},
    {"pdes.coalesced_windows", "count"},
    {"pdes.cross_msgs", "count"},
    {"pdes.idle_fraction_mean", "ratio"},
    {"pdes.idle_fraction_max", "ratio"},
    {"pdes.event_imbalance", "ratio"},
    {"interest.forwards_per_broadcast", "ratio"},
    {"cluster.ghosts_sent", "count"},
    {"cluster.ghosts_received", "count"},
    {"cluster.migrated_users", "count"},
    {"cluster.migration_hops", "count"},
    {"session.connects", "count"},
    {"session.reconnects", "count"},
    {"session.recovered", "count"},
    {"session.full_rejoins", "count"},
    {"session.ping_timeouts", "count"},
    {"session.peak_pending_connects", "count"},
    {"session.ns_per_message", "ns"},
    {"net.packets_captured", "count"},
    {"client.fps_mean", "1/s"},
    {"client.stale_fps_mean", "1/s"},
};
/// Spans whose median self time is reported as span.<name>.self_ms.
constexpr const char* kSpanMetrics[] = {
    "setup.engine", "setup.deploy", "setup.users",  "setup.cluster",
    "setup.sessions", "run.engine", "run.join",     "run.steady",
    "run.storm",    "teardown",
};

struct Ledger {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;

  void add(const RepResult& r, const std::string& label) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& f : r.failures) failures.push_back(label + ": " + f);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

std::string repJson(const char* kind, std::uint64_t seed, unsigned workers,
                    bool traced, const RepResult& r) {
  return std::string{"{\"kind\": "} + quoted(kind) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"workers\": " + std::to_string(workers) +
         ", \"traced\": " + (traced ? "true" : "false") +
         ", \"setup_s\": " + num(r.setupS) + ", \"run_s\": " + num(r.runS) +
         ", \"cpu_s\": " + num(r.runUsage.cpuS()) +
         ", \"digest\": \"" + hex(r.digest) + "\", \"attempted\": " +
         std::to_string(r.attempted) + ", \"failed\": " +
         std::to_string(r.failed) + "}";
}

template <typename Field>
double medianOf(const std::vector<RepResult>& rs, Field field) {
  std::vector<double> v;
  v.reserve(rs.size());
  for (const RepResult& r : rs) v.push_back(field(r));
  return median(std::move(v));
}

double runS(const RepResult& r) { return r.runS; }
double cpuS(const RepResult& r) { return r.runUsage.cpuS(); }

/// A repetition on the live build and one of the same seed on the
/// baseline, run back to back.
struct Pair {
  RepResult live;
  baseline::Times base;
};

/// Median over pairs of live over baseline time. On a shared host the same
/// work takes up to 2x longer in slow phases that last from seconds to many
/// minutes, on every vCPU at once; the two halves of a pair run moments
/// apart, so a phase slows both alike and cancels in their ratio.
double relMedian(const std::vector<Pair>& pairs,
                 double (*liveS)(const RepResult&),
                 double baseline::Times::*baseS) {
  std::vector<double> v;
  v.reserve(pairs.size());
  for (const Pair& p : pairs) v.push_back(liveS(p.live) / (p.base.*baseS));
  return median(std::move(v));
}

std::vector<Metric> endToEndMetrics(const std::vector<Pair>& pairs,
                                    std::vector<double> setups, double rssMb) {
  return {{"run_rel", "ratio", relMedian(pairs, runS, &baseline::Times::runS)},
          {"setup_s", "s", median(std::move(setups))},
          {"cpu_rel", "ratio", relMedian(pairs, cpuS, &baseline::Times::cpuS)},
          {"peak_rss_mb", "MB", rssMb}};
}

std::vector<Metric> perLayerMetrics(const std::vector<RepResult>& plain,
                                    const std::vector<RepResult>& traced,
                                    const Tracer& tracer) {
  std::vector<Metric> ms;
  for (const LayerDef& d : kLayerMetrics) {
    const std::string key = d.name;
    ms.push_back({d.name, d.unit, medianOf(traced, [&key](const RepResult& r) {
                    const auto it = r.layer.find(key);
                    return it != r.layer.end() ? it->second : 0.0;
                  })});
  }
  std::vector<double> perSimS;
  for (const RepResult& r : traced) {
    perSimS.insert(perSimS.end(), r.msPerSimSecond.begin(),
                   r.msPerSimSecond.end());
  }
  ms.push_back({"sim.host_ms_per_sim_s_p50", "ms", quantile(perSimS, 0.5)});
  ms.push_back({"sim.host_ms_per_sim_s_p90", "ms", quantile(perSimS, 0.9)});
  for (const char* s : kSpanMetrics) {
    ms.push_back({std::string{"span."} + s + ".self_ms", "ms",
                  tracer.medianSelfMs(s)});
  }

  // Process counters over set-up + run of every measured repetition.
  std::vector<RepResult> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  struct ProcDef {
    const char* name;
    const char* unit;
    double (*get)(const ProcUsage&);
  };
  constexpr ProcDef kProc[] = {
      {"proc.user_s", "s", [](const ProcUsage& u) { return u.userS; }},
      {"proc.sys_s", "s", [](const ProcUsage& u) { return u.sysS; }},
      {"proc.minflt", "count",
       [](const ProcUsage& u) { return static_cast<double>(u.minflt); }},
      {"proc.nvcsw", "count",
       [](const ProcUsage& u) { return static_cast<double>(u.nvcsw); }},
      {"proc.nivcsw", "count",
       [](const ProcUsage& u) { return static_cast<double>(u.nivcsw); }},
  };
  for (const ProcDef& d : kProc) {
    ms.push_back({d.name, d.unit, medianOf(all, [&d](const RepResult& r) {
                    return d.get(r.setupUsage + r.runUsage);
                  })});
  }

  const double base = medianOf(plain, runS);
  const double overhead = medianOf(traced, runS) - base;
  // The live build's absolute times; they follow the host's slow phases.
  ms.push_back({"run_s", "s", base});
  ms.push_back({"cpu_s", "s", medianOf(plain, cpuS)});
  ms.push_back({"trace.overhead_s", "s", overhead});
  ms.push_back(
      {"trace.overhead_pct", "%", base > 0.0 ? 100.0 * overhead / base : 0.0});
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: metabench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "metabench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  const unsigned cpus = hostCpus();
  const std::string cpu = cpuModel();
  // Two measured PDES workers: the engine stays parallel, while a barrier
  // round waits on one wake-up instead of three (on shared VMs, wake-up
  // latency made 4-worker wall time bimodal). The digest is also checked
  // at one worker and at min(4, nproc).
  const unsigned workers = std::min(2u, cpus);
  const unsigned maxWorkers = std::min(4u, cpus);
  const std::uint64_t seed = inputSeed(args.seed, 0);
  const std::uint64_t heldOut = inputSeed(args.seed, 1);
  std::printf("host: nproc %u, cpu \"%s\", build %s, workers %u\n", cpus,
              cpu.c_str(), METABENCH_BUILD_TYPE, workers);
  std::printf("workload %s: seed %" PRIu64 " -> input seed %" PRIu64
              ", held-out input seed %" PRIu64 "\n",
              wl->name, args.seed, seed, heldOut);
  std::fflush(stdout);

  Tracer tracer{args.trace};
  Tracer untraced{false};
  Ledger ledger;
  std::vector<std::string> repRows;
  int traceId = 0;
  auto rep = [&](const char* kind, std::uint64_t s, unsigned w,
                 bool traced) -> RepResult {
    Tracer& t = traced ? tracer : untraced;
    t.setTrace(traceId++);
    RepResult r = wl->run(RepParams{s, w}, t);
    ledger.add(r, std::string{kind} + " seed " + std::to_string(s));
    repRows.push_back(repJson(kind, s, w, traced, r));
    std::printf("  %-8s seed %" PRIu64 " workers %u%s: setup %.4f s, run %.4f "
                "s, cpu %.4f s, digest %s, %zu failed checks\n",
                kind, s, w, traced ? " traced" : "", r.setupS, r.runS,
                r.runUsage.cpuS(), hex(r.digest).c_str(), r.failures.size());
    std::fflush(stdout);
    return r;
  };

  // Warm-up: lazy set-up and first-touch page faults land here; it is
  // checked and is the reference for digest and exact-count identity.
  const RepResult ref = rep("warmup", seed, workers, false);
  // Peak RSS of one set-up + run in a fresh process. Read later, it would
  // also count heap fragmentation left by earlier repetitions.
  const double rssMb = peakRssMb();
  auto sameAsRef = [&](const RepResult& r, const std::string& what) {
    ledger.check(r.digest == ref.digest, what + ": audit digest differs");
    ledger.check(r.exact == ref.exact, what + ": exact counts differ");
  };

  // Baseline repetitions, checked like the live ones: no failed output
  // check, and the digest of its own warm-up every time.
  auto baseRep = [&]() -> baseline::Times {
    baseline::Times b = baseline::run(wl->name, seed, workers);
    for (const std::string& f : b.failures) {
      ledger.failures.push_back("baseline: " + f);
    }
    std::printf("  baseline seed %" PRIu64 " workers %u: setup %.4f s, run "
                "%.4f s, cpu %.4f s, digest %s\n",
                seed, workers, b.setupS, b.runS, b.cpuS, hex(b.digest).c_str());
    return b;
  };
  const std::uint64_t baseDigest = args.trace ? 0 : baseRep().digest;

  // Measured repetitions: until the budget is spent, at least three (two
  // of each kind when traced, alternating). Untraced, each is paired with
  // a baseline repetition, run just after it or, every other time, just
  // before it.
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  std::vector<Pair> pairs;
  const std::size_t minEach = args.trace ? 2 : 3;
  const Clock::time_point measureStart = Clock::now();
  while (secondsSince(measureStart) < args.seconds || plain.size() < minEach ||
         (args.trace && traced.size() < minEach)) {
    const bool t = args.trace && plain.size() > traced.size();
    const bool baseFirst = !args.trace && plain.size() % 2 == 1;
    baseline::Times before;
    if (baseFirst) before = baseRep();
    RepResult r = rep("measure", seed, workers, t);
    sameAsRef(r, "repetition");
    if (!args.trace) {
      baseline::Times b = baseFirst ? std::move(before) : baseRep();
      ledger.check(b.digest == baseDigest,
                   "baseline repetition: audit digest differs");
      pairs.push_back({r, std::move(b)});
    }
    (t ? traced : plain).push_back(std::move(r));
  }

  // Set-up is short next to the run on most workloads: sample it on its
  // own as well, up to kSetupSamples or a tenth of the budget.
  constexpr std::size_t kSetupSamples = 101;
  std::vector<double> setups;
  for (const RepResult& r : plain) setups.push_back(r.setupS);
  const Clock::time_point setupStart = Clock::now();
  while (!args.trace && setups.size() < kSetupSamples &&
         secondsSince(setupStart) < args.seconds / 10) {
    const RepResult r = wl->run(RepParams{seed, workers, true}, untraced);
    ledger.check(r.failures.empty(), "set-up-only repetition failed");
    setups.push_back(r.setupS);
  }

  // Held-out seed: checked, its timings recorded beside the measured ones.
  const RepResult held = rep("heldout", heldOut, workers, false);
  // Worker-count invariance of the partitioned cluster.
  if (wl->crossWorkerCheck) {
    for (const unsigned w : {1u, maxWorkers}) {
      if (w == workers) continue;
      const RepResult other = rep("workers", seed, w, false);
      sameAsRef(other, std::to_string(w) + " vs " + std::to_string(workers) +
                           " workers");
    }
  }
  // The benchmark's scenario against the simulator's canonical runner.
  if (wl->canonicalDigest != nullptr) {
    ledger.check(wl->canonicalDigest(seed) == ref.digest,
                 "digest differs from the canonical scenario runner");
  }

  const std::vector<Metric> metrics =
      args.trace ? perLayerMetrics(plain, traced, tracer)
                 : endToEndMetrics(pairs, std::move(setups), rssMb);
  const bool correct = ledger.failures.empty();
  for (const std::string& f : ledger.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("checks: %s; held-out seed run %.4f s, setup %.4f s, cpu %.4f "
              "s (measured seed median run %.4f s)\n",
              correct ? "all passed" : "FAILED", held.runS, held.setupS,
              held.runUsage.cpuS(), medianOf(plain, runS));

  // Everything this run measured, for later comparison.
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  const std::string stem = std::string{kOutDir} + "/" + wl->name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %" PRIu64
                 ", \"input_seed\": %" PRIu64 ", \"heldout_input_seed\": %" PRIu64
                 ",\n \"host\": {\"nproc\": %u, \"cpu_model\": %s, "
                 "\"build_type\": \"%s\", \"workers\": %u},\n"
                 " \"correct\": %s, \"metrics\": %s,\n"
                 " \"heldout\": {\"run_s\": %s, \"setup_s\": %s, \"cpu_s\": %s},\n"
                 " \"repetitions\": [\n  ",
                 wl->name, args.seed, seed, heldOut, cpus, quoted(cpu).c_str(),
                 METABENCH_BUILD_TYPE, workers, correct ? "true" : "false",
                 metricsJson(metrics).c_str(), num(held.runS).c_str(),
                 num(held.setupS).c_str(), num(held.runUsage.cpuS()).c_str());
    for (std::size_t i = 0; i < repRows.size(); ++i) {
      std::fprintf(f, "%s%s", i > 0 ? ",\n  " : "", repRows[i].c_str());
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  }
  if (args.trace && !tracer.writeJson(stem + "-spans.json")) {
    std::fprintf(stderr, "metabench: could not write %s-spans.json\n",
                 stem.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", ledger.attempted, ledger.failed,
              metricsJson(metrics).c_str());
  return correct ? 0 : 1;
}
