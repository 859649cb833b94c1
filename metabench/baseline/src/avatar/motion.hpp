#pragma once

// Avatar poses and controller-driven motion.
//
// Motion on these platforms is not captured from the body; it is what the
// hand-held controllers command (§5.2): walking, teleporting, and turning in
// fixed 22.5° steps (360/16 — the increment the paper exploited to measure
// AltspaceVR's server-side viewport width, §6.1).

#include <cmath>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace msim {

/// Position on the virtual floor plane plus facing direction.
struct Pose {
  double x{0.0};
  double y{0.0};
  double yawDeg{0.0};  // 0 = +x axis, counter-clockwise

  [[nodiscard]] double distanceTo(const Pose& other) const {
    const double dx = other.x - x;
    const double dy = other.y - y;
    return std::sqrt(dx * dx + dy * dy);
  }
};

/// Normalizes an angle to (-180, 180].
[[nodiscard]] double normalizeAngleDeg(double deg);

/// Bearing from `from` to the point (x, y), in degrees.
[[nodiscard]] double bearingDeg(const Pose& from, double x, double y);

/// Controller-driven movement model.
class MotionModel {
 public:
  /// The controller turn increment on these platforms: 360/16 degrees.
  static constexpr double kTurnStepDeg = 22.5;

  explicit MotionModel(Pose initial = {}) : pose_{initial} {}

  [[nodiscard]] const Pose& pose() const { return pose_; }
  void setPose(const Pose& p) { pose_ = p; }

  /// One controller snap-turn (positive = counter-clockwise).
  void turnSteps(int steps) {
    pose_.yawDeg = normalizeAngleDeg(pose_.yawDeg + steps * kTurnStepDeg);
  }

  /// Turns to face the point (x, y) exactly.
  void faceTowards(double x, double y) {
    pose_.yawDeg = bearingDeg(pose_, x, y);
  }

  /// Instantaneous teleport (a locomotion mode all five platforms offer).
  void teleportTo(double x, double y) {
    pose_.x = x;
    pose_.y = y;
  }

  /// Sets a walking destination; advance() moves toward it.
  void walkTo(double x, double y, double speedMetersPerSec = 1.4) {
    targetX_ = x;
    targetY_ = y;
    speed_ = speedMetersPerSec;
    walking_ = true;
  }

  [[nodiscard]] bool walking() const { return walking_; }

  /// Advances the walk by `dt`; faces the walking direction.
  void advance(Duration dt);

  /// Picks a random waypoint within [-roomHalf, roomHalf]^2 and walks there;
  /// used by the "users walk around and chat" workloads (§5.1).
  void wander(Rng& rng, double roomHalf = 5.0);

 private:
  Pose pose_;
  double targetX_{0.0};
  double targetY_{0.0};
  double speed_{1.4};
  bool walking_{false};
};

}  // namespace msim
