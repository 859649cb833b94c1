// Compiled only into the baseline library, where `metabench` is renamed.
#include "baseline.hpp"

#include "workloads.hpp"

namespace baseline {

Times run(const std::string& workload, std::uint64_t seed, unsigned workers) {
  static metabench::Tracer untraced{false};
  for (const metabench::Workload& w : metabench::workloads()) {
    if (workload != w.name) continue;
    metabench::RepResult r = w.run(metabench::RepParams{seed, workers}, untraced);
    return Times{r.setupS, r.runS, r.runUsage.cpuS(), r.digest,
                 std::move(r.failures)};
  }
  Times none;
  none.failures.push_back("baseline has no workload " + workload);
  return none;
}

}  // namespace baseline
