#pragma once

// OVR-Metrics-Tool-style on-device telemetry (§3.2): FPS, stale frames,
// CPU/GPU utilization, memory footprint, battery drain — sampled once per
// second like the real tool.

#include <functional>
#include <vector>

#include "client/render.hpp"
#include "util/stats.hpp"

namespace msim {

struct MetricsSample {
  TimePoint at;
  double fps{0.0};
  double staleFramesPerSec{0.0};
  double cpuUtilPct{0.0};
  double gpuUtilPct{0.0};
  double memoryGB{0.0};
  double batteryPct{100.0};
};

/// Periodic sampler over a RenderPipeline plus app-provided memory and
/// background-CPU accounting.
class OvrMetricsSampler {
 public:
  OvrMetricsSampler(Simulator& sim, RenderPipeline& pipeline);

  OvrMetricsSampler(const OvrMetricsSampler&) = delete;
  OvrMetricsSampler& operator=(const OvrMetricsSampler&) = delete;

  /// App hook reporting current memory footprint (GB).
  void setMemoryProvider(std::function<double()> fn) { memory_ = std::move(fn); }

  /// Non-render CPU work (network stack, state integration, loss recovery)
  /// credited to the next sample's utilization.
  void addBackgroundCpuMs(double ms) { backgroundCpuMs_ += ms; }
  /// Non-frame GPU work (compositor/reprojection runs every vsync, even on
  /// stale frames).
  void addBackgroundGpuMs(double ms) { backgroundGpuMs_ += ms; }

  void start(Duration interval = Duration::seconds(1));
  void stop() { task_.reset(); }

  [[nodiscard]] const std::vector<MetricsSample>& samples() const { return samples_; }
  [[nodiscard]] double batteryPct() const { return batteryPct_; }

  /// Mean over samples with at-times inside [from, to].
  [[nodiscard]] MetricsSample averageOver(TimePoint from, TimePoint to) const;

 private:
  void sample();

  Simulator& sim_;
  RenderPipeline& pipeline_;
  std::function<double()> memory_;
  std::unique_ptr<PeriodicTask> task_;
  Duration interval_{Duration::seconds(1)};
  std::vector<MetricsSample> samples_;

  std::uint64_t lastNewFrames_{0};
  std::uint64_t lastStale_{0};
  double lastCpuBusy_{0.0};
  double lastGpuBusy_{0.0};
  double backgroundCpuMs_{0.0};
  double backgroundGpuMs_{0.0};
  double batteryPct_{100.0};
};

}  // namespace msim
