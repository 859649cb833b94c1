#pragma once
// Host-side measurement: wall clock, process CPU/fault/switch counters, peak
// RSS, and the host description every result records. None of it is seen
// by the simulator; it only times the benchmark's own calls.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace metabench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// getrusage(RUSAGE_SELF) totals: every thread of the process, so PDES
/// workers are included.
struct ProcUsage {
  double userS{0.0};
  double sysS{0.0};
  std::uint64_t minflt{0};
  std::uint64_t nvcsw{0};   // voluntary switches: blocking (barrier waits)
  std::uint64_t nivcsw{0};  // involuntary switches: preemption by others

  [[nodiscard]] static ProcUsage now();
  [[nodiscard]] ProcUsage operator-(const ProcUsage& o) const;
  [[nodiscard]] ProcUsage operator+(const ProcUsage& o) const;
  [[nodiscard]] double cpuS() const { return userS + sysS; }
};

/// VmHWM of this process, MB.
[[nodiscard]] double peakRssMb();

/// CPUs this process may run on (what nproc prints).
[[nodiscard]] unsigned hostCpus();

/// "model name" from /proc/cpuinfo.
[[nodiscard]] std::string cpuModel();

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

}  // namespace metabench
