#include "platform/extensions.hpp"

namespace msim::platforms {

PlatformSpec workrooms() {
  PlatformSpec p = worlds();  // same company, same engine family
  p.name = "Workrooms";
  p.features.locomotion = "Seated, Teleport";
  p.features.game = false;
  p.features.shareScreen = true;

  // Meetings: fewer gross-motion updates but expressive upper body + hands.
  p.avatar.updateRateHz = 30.0;
  p.avatar.bytesPerUpdate = ByteSize::bytes(700);
  p.avatar.expressionEventRateHz = 1.0;  // nodding, hand raises

  // No status firehose of the Worlds game client; meeting state instead.
  p.data.uplinkStatusRate = DataRate::kbps(60.0);
  p.data.miscDownlink = DataRate::kbps(40.0);

  // Meetings render a desk/board scene; avatars are the variable cost.
  p.perf.cpuFrameBaseMs = 6.0;
  p.perf.cpuFrameMsPerAvatar = 0.35;
  p.perf.gpuFrameBaseMs = 7.0;
  p.perf.gpuFrameMsPerAvatar = 0.45;

  p.game = GameSpec{};  // no games in meetings
  return p;
}

}  // namespace msim::platforms
