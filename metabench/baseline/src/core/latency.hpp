#pragma once

// The §7 end-to-end latency probe.
//
// Method, as in the paper: the sender performs a visible action (finger
// move); both headsets' screens are recorded; E2E latency = timestamp of the
// first receiver frame showing the action minus the last sender frame before
// it — after ADB-style clock synchronization (ms-level error included).
// The breakdown uses AP packet timestamps plus the known AP<->server RTTs:
//   sender   = uplink packet at sender AP  - action time
//   server   = relay in->out (ground-truth hook; the paper reconstructed it
//              from AP timestamps and path RTTs)
//   network  = (down packet at receiver AP - up packet at sender AP) - server
//   receiver = E2E - sender - server - network

#include <optional>
#include <utility>
#include <vector>

#include "core/testbed.hpp"
#include "util/flatmap.hpp"
#include "util/stats.hpp"

namespace msim {

/// One probe's measurements (milliseconds).
struct LatencySample {
  std::uint64_t actionId{0};
  double e2eMs{0.0};
  double senderMs{0.0};
  double serverMs{0.0};
  double networkMs{0.0};
  double receiverMs{0.0};
  bool complete{false};
};

/// Aggregated over many probes.
struct LatencyStats {
  RunningStats e2e;
  RunningStats sender;
  RunningStats server;
  RunningStats network;
  RunningStats receiver;
  int attempted{0};
  int completed{0};
};

/// Runs repeated finger-touch probes between two users on a testbed.
class LatencyProbe {
 public:
  LatencyProbe(Testbed& bed, TestUser& sender, TestUser& receiver);

  /// Schedules `count` probes spaced by `interval` starting at `firstAt`.
  void scheduleProbes(TimePoint firstAt, int count,
                      Duration interval = Duration::seconds(2));

  /// Collects results; call after the simulation has run past the probes.
  [[nodiscard]] LatencyStats collect() const;

 private:
  void fireProbe();

  Testbed& bed_;
  TestUser& sender_;
  TestUser& receiver_;
  /// Clock-sync offsets estimated once up front, as the paper did.
  Duration senderOffsetEst_;
  Duration receiverOffsetEst_;
  struct Probe {
    std::uint64_t actionId{0};
    TimePoint performedAt;  // sim time ground truth
  };
  std::vector<Probe> probes_;
  // Server in/out times per action, from the relay's ground-truth hook.
  std::shared_ptr<FlatMap64<std::pair<TimePoint, TimePoint>>> serverTimes_;
};

}  // namespace msim
