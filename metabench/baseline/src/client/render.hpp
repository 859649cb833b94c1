#pragma once

// The local-rendering pipeline.
//
// All five platforms render on the headset (§6.3 lists the paper's evidence).
// This pipeline reproduces the causal chain behind Figs. 7, 8 and 12(c):
// frame cost grows with the number of visible avatars; a frame whose cost
// exceeds the vsync budget occupies several vsync slots; the compositor
// re-displays the previous frame ("stale frames") meanwhile; the OVR-style
// FPS metric counts only new frames.

#include <cstdint>
#include <functional>
#include <memory>

#include "client/device.hpp"
#include "sim/simulator.hpp"

namespace msim {

/// Per-frame cost of the scene, supplied by the platform application.
struct FrameWorkload {
  double cpuMs{4.0};
  double gpuMs{5.0};
  int visibleAvatars{0};
};

/// What happened to one displayed frame.
struct FrameInfo {
  std::uint64_t frameIndex{0};
  TimePoint startedAt;
  TimePoint displayedAt;
  double cpuMs{0.0};
  double gpuMs{0.0};
  int vsyncSlots{1};
};

/// Vsync-locked renderer with stale-frame accounting.
class RenderPipeline {
 public:
  using WorkloadFn = std::function<FrameWorkload()>;
  using FrameStartFn = std::function<void(std::uint64_t frameIndex)>;
  using FrameDisplayedFn = std::function<void(const FrameInfo&)>;

  RenderPipeline(Simulator& sim, const DeviceSpec& device);

  RenderPipeline(const RenderPipeline&) = delete;
  RenderPipeline& operator=(const RenderPipeline&) = delete;

  /// The platform app provides per-frame costs here.
  void setWorkload(WorkloadFn fn) { workload_ = std::move(fn); }

  /// Fires when a new frame's work begins (the app snapshots which avatar
  /// updates / actions this frame will contain).
  void onFrameStart(FrameStartFn fn) { onFrameStart_ = std::move(fn); }

  /// Fires when a new (non-stale) frame reaches the display.
  void onFrameDisplayed(FrameDisplayedFn fn) { onDisplayed_ = std::move(fn); }

  void start();
  void stop();
  [[nodiscard]] bool running() const { return task_ != nullptr; }

  /// Per-frame cost multiplier noise (default 8%): real frame times vary,
  /// which is what produces non-quantized average FPS values.
  void setCostJitter(double fraction) { costJitter_ = fraction; }

  // Cumulative counters (the metrics sampler differences them per window).
  [[nodiscard]] std::uint64_t newFrames() const { return newFrames_; }
  [[nodiscard]] std::uint64_t staleFrames() const { return staleFrames_; }
  [[nodiscard]] double cpuBusyMs() const { return cpuBusyMs_; }
  [[nodiscard]] double gpuBusyMs() const { return gpuBusyMs_; }

  [[nodiscard]] const DeviceSpec& device() const { return device_; }
  [[nodiscard]] Duration vsyncPeriod() const { return vsync_; }

 private:
  void onVsync();

  Simulator& sim_;
  DeviceSpec device_;
  Duration vsync_;
  WorkloadFn workload_;
  FrameStartFn onFrameStart_;
  FrameDisplayedFn onDisplayed_;
  std::unique_ptr<PeriodicTask> task_;
  double costJitter_{0.08};

  // In-progress frame state.
  bool frameInFlight_{false};
  FrameInfo current_;
  int slotsRemaining_{0};

  std::uint64_t nextFrameIndex_{1};
  std::uint64_t newFrames_{0};
  std::uint64_t staleFrames_{0};
  double cpuBusyMs_{0.0};
  double gpuBusyMs_{0.0};
};

}  // namespace msim
