#pragma once
// Runs the benchmark's workloads on the frozen baseline simulator (see
// baseline/CMakeLists.txt). Declared outside the renamed namespaces, with
// standard types only, so the live benchmark can call into the baseline
// build.

#include <cstdint>
#include <string>
#include <vector>

namespace baseline {

/// One repetition on the baseline: the fields of RepResult the benchmark
/// compares against the live build.
struct Times {
  double setupS{0.0};
  double runS{0.0};
  double cpuS{0.0};
  std::uint64_t digest{0};
  std::vector<std::string> failures;
};

/// Sets up and runs one repetition of `workload` on the baseline.
[[nodiscard]] Times run(const std::string& workload, std::uint64_t seed,
                        unsigned workers);

}  // namespace baseline
