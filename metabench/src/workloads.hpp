#pragma once
// The benchmark's workloads. Each one builds its inputs from a seed through
// the simulator's public API, runs a fixed amount of simulated work, and
// checks the simulated outputs. Host time is measured around the calls;
// the simulated statistics are checked, never timed.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "host.hpp"
#include "trace.hpp"

namespace metabench {

struct RepParams {
  std::uint64_t seed{1};
  unsigned workers{1};  // PDES engine workers (cluster workloads only)
  bool setupOnly{false};  // tear down right after set-up (set-up sampling)
};

/// One repetition: set up, run, check.
struct RepResult {
  double setupS{0.0};
  double runS{0.0};
  ProcUsage setupUsage;  // deltas over the set-up phase
  ProcUsage runUsage;    // deltas over the run phase
  std::uint64_t digest{0};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;  // output checks that did not hold
  /// Per-layer values by metric name (metric names as in BENCHMARK.json).
  std::map<std::string, double> layer;
  /// Counts that must repeat bit-for-bit for one seed and worker count.
  std::map<std::string, std::uint64_t> exact;
  /// Host milliseconds per simulated second, one sample per slice, where
  /// the benchmark drives the event loop itself.
  std::vector<double> msPerSimSecond;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

struct Workload {
  const char* name;
  RepResult (*run)(const RepParams&, Tracer&);
  /// Whether the digest must also match at one engine worker.
  bool crossWorkerCheck;
  /// Digest of the same scenario run by the simulator's own canonical
  /// runner, when it has one (0 = none); must equal the benchmark's digest.
  std::uint64_t (*canonicalDigest)(std::uint64_t seed);
};

[[nodiscard]] const std::vector<Workload>& workloads();

}  // namespace metabench
