#include "platform/remote_render.hpp"

namespace msim {

// ---------------------------------------------------------- RemoteRenderServer

RemoteRenderServer::RemoteRenderServer(Node& node, std::uint16_t port,
                                       RemoteRenderSpec spec)
    : node_{node}, spec_{spec}, socket_{node, port} {
  socket_.onReceive([this](const Packet& p, const Endpoint& from) {
    onDatagram(p, from);
  });
  frameTask_ = std::make_unique<PeriodicTask>(
      node_.sim(), Duration::seconds(1.0 / spec_.frameRateHz),
      [this] { frameTick(); });
}

void RemoteRenderServer::onDatagram(const Packet& p, const Endpoint& from) {
  const Message* m = p.primaryMessage();
  if (m == nullptr) return;
  if (m->kind == rrmsg::kPose) {
    viewers_[m->senderId] = from;  // register / refresh the viewer
  }
}

double RemoteRenderServer::serverGpuUtilization() const {
  const double demand = spec_.renderEncodeMsPerFrame * spec_.frameRateHz *
                        static_cast<double>(viewers_.size());
  return demand / spec_.serverGpuMsPerSec;
}

void RemoteRenderServer::frameTick() {
  // One encoded frame per viewer per tick. The frame size depends only on
  // the stream quality — never on how many avatars are in the scene.
  const double bytesPerFrame = static_cast<double>(spec_.videoBitrate.toBps()) /
                               8.0 / spec_.frameRateHz;
  for (const auto& [userId, ep] : viewers_) {
    auto m = std::make_shared<Message>();
    m->kind = rrmsg::kVideoFrame;
    m->size = ByteSize::bytes(static_cast<std::int64_t>(bytesPerFrame));
    m->senderId = 0;
    m->sequence = ++framesStreamed_;
    const ByteSize size = m->size;
    socket_.sendTo(ep, size, std::move(m));
  }
}

// ---------------------------------------------------------- RemoteRenderClient

RemoteRenderClient::RemoteRenderClient(HeadsetDevice& headset, Endpoint server,
                                       std::uint64_t userId, RemoteRenderSpec spec)
    : headset_{headset},
      server_{server},
      userId_{userId},
      spec_{spec},
      socket_{headset.node()} {
  socket_.onReceive([this](const Packet& p, const Endpoint&) {
    const Message* m = p.primaryMessage();
    if (m != nullptr && m->kind == rrmsg::kVideoFrame) ++framesReceived_;
  });
  // Thin client: fixed decode cost, no per-avatar scene work at all.
  headset_.pipeline().setWorkload([this] {
    FrameWorkload load;
    load.cpuMs = spec_.clientDecodeCpuMs;
    load.gpuMs = spec_.clientDecodeGpuMs;
    load.visibleAvatars = 0;
    return load;
  });
}

void RemoteRenderClient::start() {
  headset_.pipeline().start();
  headset_.metrics().start();
  poseTask_ = std::make_unique<PeriodicTask>(
      headset_.sim(), Duration::seconds(1.0 / spec_.poseRateHz), [this] {
        auto m = std::make_shared<Message>();
        m->kind = rrmsg::kPose;
        m->size = spec_.poseBytes;
        m->senderId = userId_;
        const ByteSize size = m->size;
        socket_.sendTo(server_, size, std::move(m));
      });
}

void RemoteRenderClient::stop() {
  poseTask_.reset();
  headset_.pipeline().stop();
}

}  // namespace msim
