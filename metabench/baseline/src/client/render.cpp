#include "client/render.hpp"

#include <algorithm>
#include <cmath>

namespace msim {

RenderPipeline::RenderPipeline(Simulator& sim, const DeviceSpec& device)
    : sim_{sim},
      device_{device},
      vsync_{Duration::seconds(1.0 / device.refreshRateHz)} {}

void RenderPipeline::start() {
  if (task_ != nullptr) return;
  task_ = std::make_unique<PeriodicTask>(sim_, vsync_, Duration::zero(),
                                         [this] { onVsync(); });
}

void RenderPipeline::stop() { task_.reset(); }

void RenderPipeline::onVsync() {
  if (frameInFlight_) {
    slotsRemaining_ -= 1;
    if (slotsRemaining_ > 0) {
      // Frame still cooking: the compositor re-shows the previous image.
      ++staleFrames_;
      return;
    }
    // Frame completed during the last slot; it is displayed now.
    frameInFlight_ = false;
    current_.displayedAt = sim_.now();
    ++newFrames_;
    if (onDisplayed_) onDisplayed_(current_);
  }

  // Begin the next frame.
  FrameWorkload load = workload_ ? workload_() : FrameWorkload{};
  if (costJitter_ > 0.0) {
    load.cpuMs *= std::max(0.25, sim_.rng().normal(1.0, costJitter_));
    load.gpuMs *= std::max(0.25, sim_.rng().normal(1.0, costJitter_));
  }
  current_ = FrameInfo{};
  current_.frameIndex = nextFrameIndex_++;
  current_.startedAt = sim_.now();
  current_.cpuMs = load.cpuMs;
  current_.gpuMs = load.gpuMs;
  // CPU and GPU stages pipeline; the longer one paces the frame.
  const double cpuSlots = load.cpuMs / device_.cpuBudgetMsPerFrame;
  const double gpuSlots = load.gpuMs / device_.gpuBudgetMsPerFrame;
  current_.vsyncSlots =
      std::max(1, static_cast<int>(std::ceil(std::max(cpuSlots, gpuSlots))));
  slotsRemaining_ = current_.vsyncSlots;
  frameInFlight_ = true;
  cpuBusyMs_ += load.cpuMs;
  gpuBusyMs_ += load.gpuMs;
  if (onFrameStart_) onFrameStart_(current_.frameIndex);
}

}  // namespace msim
