#pragma once

// Avatar embodiment descriptors.
//
// §5.2 attributes the platforms' throughput differences almost entirely to
// how rich their avatars are: AltspaceVR (no arms, no facial expressions,
// ~11 Kbps) up to Worlds (human-like, gesture-driven facial expressions,
// ~330 Kbps). An AvatarSpec captures exactly the knobs the paper calls out;
// the update codec turns them into on-wire bytes.

#include <string>

#include "util/rate.hpp"

namespace msim {

/// Visual/embodiment capabilities of a platform's avatars (Fig. 4 column).
struct AvatarSpec {
  std::string style;            // "cartoon", "human-like"
  bool hasArms{false};
  bool facialExpressions{false};
  bool fullBody{false};         // only VRChat renders lower limbs
  bool humanLike{false};        // only Worlds

  /// Tracked rigid bodies whose 3D coordinates are shipped per update
  /// (head + controllers at minimum; more for arms/face rigs).
  int trackedComponents{3};

  /// Pose updates per second.
  double updateRateHz{10.0};

  /// Payload bytes per pose update (quantized transforms + state flags).
  ByteSize bytesPerUpdate = ByteSize::bytes(120);

  /// Facial-expression / gesture events (Worlds' thumbs-up etc.).
  double expressionEventRateHz{0.0};
  ByteSize bytesPerExpressionEvent = ByteSize::zero();

  /// Average application-layer data rate this avatar generates.
  [[nodiscard]] DataRate meanUpdateRate() const {
    const double bps = updateRateHz * static_cast<double>(bytesPerUpdate.toBits()) +
                       expressionEventRateHz *
                           static_cast<double>(bytesPerExpressionEvent.toBits());
    return DataRate::bps(static_cast<std::int64_t>(bps + 0.5));
  }
};

/// Voice codec model (all experiments join muted, but the platforms carry
/// Opus-like voice when users speak; the quickstart example exercises it).
struct VoiceSpec {
  double frameRateHz{50.0};               // 20 ms frames
  ByteSize bytesPerFrame = ByteSize::bytes(80);  // ~32 Kbps Opus
};

}  // namespace msim
