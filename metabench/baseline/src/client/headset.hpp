#pragma once

// A complete client device: network node + render pipeline + telemetry +
// screen recording + a drifting local clock.
//
// The paper's end-to-end latency method (§7) records both headsets' screens
// and compares frame timestamps, after synchronizing each headset's clock to
// the WiFi AP over ADB with millisecond-level accuracy. HeadsetDevice gives
// each device a true clock offset; AdbClockSync recovers it with a small
// error — so the harness measures latency the way the paper did, and tests
// can compare against simulator ground truth.

#include <deque>
#include <optional>

#include "client/metrics.hpp"
#include "client/render.hpp"
#include "net/node.hpp"
#include "util/flatmap.hpp"

namespace msim {

/// One user's device (headset or PC) attached to the network.
class HeadsetDevice {
 public:
  HeadsetDevice(Simulator& sim, Node& node, DeviceSpec spec,
                Duration trueClockOffset = Duration::zero());

  HeadsetDevice(const HeadsetDevice&) = delete;
  HeadsetDevice& operator=(const HeadsetDevice&) = delete;

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] Node& node() { return node_; }
  [[nodiscard]] const DeviceSpec& spec() const { return pipeline_.device(); }
  [[nodiscard]] RenderPipeline& pipeline() { return pipeline_; }
  [[nodiscard]] OvrMetricsSampler& metrics() { return metrics_; }

  /// Device-local wall clock (sim time + this device's true offset).
  [[nodiscard]] TimePoint localNow() const { return sim_.now() + trueOffset_; }
  [[nodiscard]] Duration trueClockOffset() const { return trueOffset_; }

  // ---- screen recording (the §7 measurement method) ----------------------

  /// Marks an action/update as ready to appear on screen: it becomes part of
  /// the next frame that *starts* and is recorded when that frame displays.
  void markActionVisible(std::uint64_t actionId);

  /// Local timestamp of the first displayed frame containing the action.
  [[nodiscard]] std::optional<TimePoint> firstDisplayLocal(std::uint64_t actionId) const;

  /// Local timestamp of the last frame displayed at or before `localT`
  /// (the sender-side reference frame in Fig. 10).
  [[nodiscard]] std::optional<TimePoint> lastDisplayAtOrBeforeLocal(TimePoint localT) const;

 private:
  Simulator& sim_;
  Node& node_;
  Duration trueOffset_;
  RenderPipeline pipeline_;
  OvrMetricsSampler metrics_;

  std::vector<std::uint64_t> pendingActions_;
  FlatMap64<std::vector<std::uint64_t>> actionsInFrame_;  // frame -> actions
  FlatMap64<TimePoint> firstDisplay_;                     // action -> local time
  std::deque<TimePoint> recentDisplays_;                  // local times
};

/// The ADB-based clock synchronization of §7.
class AdbClockSync {
 public:
  /// Estimates a device's clock offset relative to the AP/simulation clock.
  /// The estimate carries the method's millisecond-level error.
  [[nodiscard]] static Duration estimateOffset(const HeadsetDevice& device, Rng& rng,
                                               double errorStdMs = 0.4);
};

}  // namespace msim
