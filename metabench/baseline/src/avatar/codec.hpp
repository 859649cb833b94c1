#pragma once

// Serialization of avatar state into app-layer messages.

#include <memory>

#include "avatar/motion.hpp"
#include "avatar/spec.hpp"
#include "net/packet.hpp"
#include "util/rng.hpp"

namespace msim {

/// Message kinds produced by the codec (ground-truth tags; the capture layer
/// never reads them — payloads are "encrypted" as in the paper). Interned
/// once so per-message kind handling is pointer-sized and pointer-compared.
namespace avatarmsg {
inline const MsgKind kPoseUpdate{"avatar:pose"};
inline const MsgKind kExpression{"avatar:expression"};
inline const MsgKind kVoiceFrame{"voice:frame"};
}  // namespace avatarmsg

/// Encodes one user's avatar stream.
class AvatarUpdateCodec {
 public:
  AvatarUpdateCodec(AvatarSpec spec, std::uint64_t senderId)
      : spec_{std::move(spec)}, senderId_{senderId} {}

  [[nodiscard]] const AvatarSpec& spec() const { return spec_; }

  /// One pose update. `actionId` carries the latency-probe marker when the
  /// update reflects a user-visible action. Size varies a little per update
  /// (delta coding), hence the rng.
  [[nodiscard]] std::shared_ptr<Message> encodePose(const Pose& pose, TimePoint now,
                                                    Rng& rng,
                                                    std::uint64_t actionId = 0);

  /// One expression/gesture event (thumbs-up and friends on Worlds).
  [[nodiscard]] std::shared_ptr<Message> encodeExpression(TimePoint now);

  /// One voice frame.
  [[nodiscard]] std::shared_ptr<Message> encodeVoice(const VoiceSpec& voice,
                                                     TimePoint now);

  [[nodiscard]] std::uint64_t senderId() const { return senderId_; }
  /// Pose-stream sequence (receivers detect losses from gaps in this, so
  /// expression/voice messages number themselves in separate spaces).
  [[nodiscard]] std::uint64_t sequence() const { return seq_; }

 private:
  AvatarSpec spec_;
  std::uint64_t senderId_;
  std::uint64_t seq_{0};
  std::uint64_t exprSeq_{0};
  std::uint64_t voiceSeq_{0};
};

}  // namespace msim
