#include "client/metrics.hpp"

#include <algorithm>

namespace msim {

OvrMetricsSampler::OvrMetricsSampler(Simulator& sim, RenderPipeline& pipeline)
    : sim_{sim}, pipeline_{pipeline} {}

void OvrMetricsSampler::start(Duration interval) {
  interval_ = interval;
  lastNewFrames_ = pipeline_.newFrames();
  lastStale_ = pipeline_.staleFrames();
  lastCpuBusy_ = pipeline_.cpuBusyMs();
  lastGpuBusy_ = pipeline_.gpuBusyMs();
  task_ = std::make_unique<PeriodicTask>(sim_, interval_, [this] { sample(); });
}

void OvrMetricsSampler::sample() {
  const double windowMs = interval_.toMillis();
  const double windowSec = interval_.toSeconds();
  const DeviceSpec& dev = pipeline_.device();

  MetricsSample s;
  s.at = sim_.now();
  s.fps = static_cast<double>(pipeline_.newFrames() - lastNewFrames_) / windowSec;
  s.staleFramesPerSec =
      static_cast<double>(pipeline_.staleFrames() - lastStale_) / windowSec;

  // Capacity: budget ms per vsync slot, slots per window.
  const double slotsPerWindow = windowSec * dev.refreshRateHz;
  const double cpuCapacityMs = slotsPerWindow * dev.cpuBudgetMsPerFrame;
  const double gpuCapacityMs = slotsPerWindow * dev.gpuBudgetMsPerFrame;
  const double cpuUsedMs =
      pipeline_.cpuBusyMs() - lastCpuBusy_ + backgroundCpuMs_;
  const double gpuUsedMs =
      pipeline_.gpuBusyMs() - lastGpuBusy_ + backgroundGpuMs_;
  s.cpuUtilPct = std::min(100.0, 100.0 * cpuUsedMs / cpuCapacityMs);
  s.gpuUtilPct = std::min(100.0, 100.0 * gpuUsedMs / gpuCapacityMs);

  s.memoryGB = memory_ ? memory_() : 0.0;

  if (dev.batteryWh > 0.0) {
    const double watts = dev.idlePowerW + dev.cpuMaxPowerW * s.cpuUtilPct / 100.0 +
                         dev.gpuMaxPowerW * s.gpuUtilPct / 100.0;
    const double whUsed = watts * windowMs / 3'600'000.0;
    batteryPct_ = std::max(0.0, batteryPct_ - 100.0 * whUsed / dev.batteryWh);
  }
  s.batteryPct = batteryPct_;

  lastNewFrames_ = pipeline_.newFrames();
  lastStale_ = pipeline_.staleFrames();
  lastCpuBusy_ = pipeline_.cpuBusyMs();
  lastGpuBusy_ = pipeline_.gpuBusyMs();
  backgroundCpuMs_ = 0.0;
  backgroundGpuMs_ = 0.0;

  samples_.push_back(s);
}

MetricsSample OvrMetricsSampler::averageOver(TimePoint from, TimePoint to) const {
  MetricsSample avg;
  avg.at = to;
  RunningStats fps;
  RunningStats stale;
  RunningStats cpu;
  RunningStats gpu;
  RunningStats mem;
  for (const auto& s : samples_) {
    if (s.at < from || s.at > to) continue;
    fps.add(s.fps);
    stale.add(s.staleFramesPerSec);
    cpu.add(s.cpuUtilPct);
    gpu.add(s.gpuUtilPct);
    mem.add(s.memoryGB);
  }
  avg.fps = fps.mean();
  avg.staleFramesPerSec = stale.mean();
  avg.cpuUtilPct = cpu.mean();
  avg.gpuUtilPct = gpu.mean();
  avg.memoryGB = mem.mean();
  avg.batteryPct = batteryPct_;
  return avg;
}

}  // namespace msim
