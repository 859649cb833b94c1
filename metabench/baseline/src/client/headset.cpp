#include "client/headset.hpp"

namespace msim {

HeadsetDevice::HeadsetDevice(Simulator& sim, Node& node, DeviceSpec spec,
                             Duration trueClockOffset)
    : sim_{sim},
      node_{node},
      trueOffset_{trueClockOffset},
      pipeline_{sim, spec},
      metrics_{sim, pipeline_} {
  pipeline_.onFrameStart([this](std::uint64_t frameIndex) {
    if (pendingActions_.empty()) return;
    auto& slot = actionsInFrame_[frameIndex];
    slot.insert(slot.end(), pendingActions_.begin(), pendingActions_.end());
    pendingActions_.clear();
  });
  pipeline_.onFrameDisplayed([this](const FrameInfo& frame) {
    const TimePoint local = localNow();
    recentDisplays_.push_back(local);
    while (recentDisplays_.size() > 4096) recentDisplays_.pop_front();
    if (std::vector<std::uint64_t>* actions = actionsInFrame_.find(frame.frameIndex)) {
      for (const std::uint64_t action : *actions) {
        // Keep the first display only.
        if (!firstDisplay_.contains(action)) firstDisplay_.insert(action, local);
      }
      actionsInFrame_.erase(frame.frameIndex);
    }
  });
}

void HeadsetDevice::markActionVisible(std::uint64_t actionId) {
  pendingActions_.push_back(actionId);
}

std::optional<TimePoint> HeadsetDevice::firstDisplayLocal(std::uint64_t actionId) const {
  const TimePoint* t = firstDisplay_.find(actionId);
  if (t == nullptr) return std::nullopt;
  return *t;
}

std::optional<TimePoint> HeadsetDevice::lastDisplayAtOrBeforeLocal(TimePoint localT) const {
  std::optional<TimePoint> best;
  for (const TimePoint t : recentDisplays_) {
    if (t <= localT) {
      best = t;
    } else {
      break;
    }
  }
  return best;
}

Duration AdbClockSync::estimateOffset(const HeadsetDevice& device, Rng& rng,
                                      double errorStdMs) {
  // `adb shell echo $EPOCHREALTIME` + AP system call + RTT halving: the true
  // offset plus a small symmetric error.
  return device.trueClockOffset() + Duration::millis(rng.normal(0.0, errorStdMs));
}

}  // namespace msim
