#include "avatar/codec.hpp"

namespace msim {

std::shared_ptr<Message> AvatarUpdateCodec::encodePose(const Pose& pose,
                                                       TimePoint now, Rng& rng,
                                                       std::uint64_t actionId) {
  auto m = std::make_shared<Message>();
  m->kind = avatarmsg::kPoseUpdate;
  m->pose = Message::PoseHint{pose.x, pose.y, pose.yawDeg};
  // Delta coding makes sizes vary around the spec value by ~8%.
  const double jitter = rng.normal(1.0, 0.08);
  const double bytes = static_cast<double>(spec_.bytesPerUpdate.toBytes()) *
                       (jitter < 0.5 ? 0.5 : jitter);
  m->size = ByteSize::bytes(static_cast<std::int64_t>(bytes + 0.5));
  m->senderId = senderId_;
  m->sequence = ++seq_;
  m->actionId = actionId;
  m->createdAt = now;
  return m;
}

std::shared_ptr<Message> AvatarUpdateCodec::encodeExpression(TimePoint now) {
  auto m = std::make_shared<Message>();
  m->kind = avatarmsg::kExpression;
  m->size = spec_.bytesPerExpressionEvent;
  m->senderId = senderId_;
  m->sequence = ++exprSeq_;
  m->createdAt = now;
  return m;
}

std::shared_ptr<Message> AvatarUpdateCodec::encodeVoice(const VoiceSpec& voice,
                                                        TimePoint now) {
  auto m = std::make_shared<Message>();
  m->kind = avatarmsg::kVoiceFrame;
  m->size = voice.bytesPerFrame;
  m->senderId = senderId_;
  m->sequence = ++voiceSeq_;
  m->createdAt = now;
  return m;
}

}  // namespace msim
