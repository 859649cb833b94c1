#pragma once

// Viewport geometry.
//
// AltspaceVR's server forwards an avatar's data only when it falls inside a
// ~150° wedge around the receiving user's facing direction (§6.1) — wider
// than the headset's optical FoV to absorb viewport-prediction error. This
// header is that geometry, shared by the server-side filter, the detection
// bench, and the on-device renderer (which culls to the same wedge when
// counting visible avatars for frame cost).

#include "avatar/motion.hpp"

namespace msim {

/// Signed shortest angular difference a − b, normalized to (-180, 180].
/// Safe across the ±180° seam and for unnormalized inputs of any magnitude.
[[nodiscard]] inline double angleDiffDeg(double aDeg, double bDeg) {
  return normalizeAngleDeg(aDeg - bDeg);
}

/// Horizontal angle (absolute degrees, [0, 180]) between the observer's
/// facing direction and the direction to the target point.
[[nodiscard]] inline double viewAngleDeg(const Pose& observer, double targetX,
                                         double targetY) {
  const double bearing = bearingDeg(observer, targetX, targetY);
  const double diff = angleDiffDeg(bearing, observer.yawDeg);
  return diff < 0 ? -diff : diff;
}

/// True if the target lies within a wedge of `widthDeg` centred on the
/// observer's facing direction.
[[nodiscard]] inline bool inViewport(const Pose& observer, double targetX,
                                     double targetY, double widthDeg) {
  return viewAngleDeg(observer, targetX, targetY) <= widthDeg / 2.0;
}

/// The observer's facing direction extrapolated `leadMs` into the future
/// from its last two reports (the §6.1 prediction problem: the server's
/// view of a pose is stale by the delivery delay, so AltspaceVR filters
/// against where the receiver will be looking, not where it last was).
/// The angular rate is taken along the shortest arc, so a report pair
/// straddling the ±180° seam (e.g. 179° → -177°) extrapolates through the
/// seam instead of whipping the long way around.
[[nodiscard]] inline double predictYawDeg(double yawDeg, double prevYawDeg,
                                          TimePoint poseAt,
                                          TimePoint prevPoseAt,
                                          double leadMs) {
  if (leadMs <= 0.0 || prevPoseAt == TimePoint::epoch() ||
      poseAt <= prevPoseAt) {
    return yawDeg;
  }
  const double dtMs = (poseAt - prevPoseAt).toMillis();
  // Reject degenerate report spacing: sub-ms pairs amplify jitter into wild
  // rates, and second-plus gaps mean the rate estimate is stale anyway.
  if (dtMs < 1.0 || dtMs > 1000.0) return yawDeg;
  const double rate = angleDiffDeg(yawDeg, prevYawDeg) / dtMs;
  return normalizeAngleDeg(yawDeg + rate * leadMs);
}

/// The wedge width the paper measured for AltspaceVR's server filter.
inline constexpr double kAltspaceViewportWidthDeg = 150.0;

/// Quest 2's approximate optical horizontal FoV (what the user can see).
inline constexpr double kQuest2FovDeg = 97.0;

/// Maximum data saving the filter can deliver (1 - width/360 ≈ 58%).
[[nodiscard]] inline double maxViewportSaving(double widthDeg) {
  return 1.0 - widthDeg / 360.0;
}

}  // namespace msim
