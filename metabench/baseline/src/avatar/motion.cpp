#include "avatar/motion.hpp"

namespace msim {

double normalizeAngleDeg(double deg) {
  // Closed form: constant time for any magnitude. The subtract-360 loop
  // this replaces was O(|deg|/360) and stopped terminating once |deg| grew
  // past ~2^53 (360 falls below one ULP, so `deg -= 360` is a no-op) —
  // reachable from unnormalized client-reported yaws fed through the
  // viewport predictor. std::remainder returns [-180, 180]; fold the open
  // end onto +180 to keep the (-180, 180] contract.
  const double r = std::remainder(deg, 360.0);
  return r <= -180.0 ? r + 360.0 : r;
}

double bearingDeg(const Pose& from, double x, double y) {
  return normalizeAngleDeg(std::atan2(y - from.y, x - from.x) * 180.0 / M_PI);
}

void MotionModel::advance(Duration dt) {
  if (!walking_) return;
  const double dx = targetX_ - pose_.x;
  const double dy = targetY_ - pose_.y;
  const double dist = std::sqrt(dx * dx + dy * dy);
  const double step = speed_ * dt.toSeconds();
  if (dist <= step || dist < 1e-9) {
    pose_.x = targetX_;
    pose_.y = targetY_;
    walking_ = false;
    return;
  }
  pose_.yawDeg = bearingDeg(pose_, targetX_, targetY_);
  pose_.x += dx / dist * step;
  pose_.y += dy / dist * step;
}

void MotionModel::wander(Rng& rng, double roomHalf) {
  walkTo(rng.uniform(-roomHalf, roomHalf), rng.uniform(-roomHalf, roomHalf));
}

}  // namespace msim
