#pragma once

// Cross-thread-count determinism verification for seed sweeps.
//
// "Bit-identical for any MSIM_THREADS" used to be a bench claim; this header
// makes it a checked invariant. verifyThreadInvariance() runs the same
// audited scenario sweep under two worker counts and compares each seed's
// RunFingerprint. On divergence the report names the seed AND the first
// mismatching event index (when the scenario recorded a trail), which is the
// difference between "digest mismatch, good luck" and "event 17 fired out of
// order".
//
// Header-only on purpose: it sits on top of core/seedsweep, while the
// msim_audit library itself stays below the simulator.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "core/seedsweep.hpp"

namespace msim::audit {

/// Outcome of one cross-thread-count comparison. `identical` covers every
/// seed; the remaining fields describe the first divergent seed, if any.
struct ThreadInvarianceReport {
  bool identical{true};
  unsigned threadsA{1};
  unsigned threadsB{0};
  std::size_t seedIndex{0};
  std::uint64_t seed{0};
  std::size_t firstEventIndex{kNoDivergence};
  std::uint64_t digestA{0};
  std::uint64_t digestB{0};

  [[nodiscard]] std::string describe() const {
    if (identical) return "audit: digests identical across thread counts";
    char buf[192];
    if (firstEventIndex != kNoDivergence) {
      std::snprintf(buf, sizeof buf,
                    "audit: seed %llu (index %zu) diverges between %u and %u "
                    "threads at event %zu (%016llx vs %016llx)",
                    static_cast<unsigned long long>(seed), seedIndex, threadsA,
                    threadsB, firstEventIndex,
                    static_cast<unsigned long long>(digestA),
                    static_cast<unsigned long long>(digestB));
    } else {
      std::snprintf(buf, sizeof buf,
                    "audit: seed %llu (index %zu) diverges between %u and %u "
                    "threads (%016llx vs %016llx)",
                    static_cast<unsigned long long>(seed), seedIndex, threadsA,
                    threadsB, static_cast<unsigned long long>(digestA),
                    static_cast<unsigned long long>(digestB));
    }
    return buf;
  }
};

/// Runs `fn(seed) -> RunFingerprint` over `seeds` once with `threadsA`
/// workers and once with `threadsB` (0 = MSIM_THREADS / hardware default),
/// and reports the first per-seed divergence. `fn` must enable auditing on
/// the Simulator it builds and return that run's fingerprint; recording a
/// trail upgrades the report from "which seed" to "which event".
template <typename Fn>
[[nodiscard]] ThreadInvarianceReport verifyThreadInvariance(
    const std::vector<std::uint64_t>& seeds, Fn&& fn, unsigned threadsA = 1,
    unsigned threadsB = 0) {
  ThreadInvarianceReport report;
  report.threadsA = threadsA;
  report.threadsB = threadsB == 0 ? seedSweepThreads() : threadsB;
  const auto a = runSeedSweep(seeds, fn, threadsA);
  const auto b = runSeedSweep(seeds, fn, threadsB);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (a[i] == b[i]) continue;
    report.identical = false;
    report.seedIndex = i;
    report.seed = seeds[i];
    report.digestA = a[i].digest;
    report.digestB = b[i].digest;
    report.firstEventIndex = firstDivergence(a[i].trail, b[i].trail);
    break;
  }
  return report;
}

}  // namespace msim::audit
