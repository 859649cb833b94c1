#pragma once

// Remote rendering — the paper's proposed fix for the scalability problem
// (§6.3): the server renders each user's viewport and streams encoded video
// whose bitrate depends on visual quality, *not* on how many avatars are in
// the scene. The ablation bench contrasts this against the shipping
// relay-everything architecture.

#include <map>
#include <memory>

#include "client/headset.hpp"
#include "transport/udp.hpp"

namespace msim {

/// Encoding/streaming parameters.
struct RemoteRenderSpec {
  /// Encoded stream bitrate (cloud-gaming grade: >25 Mbps, §2.2).
  DataRate videoBitrate = DataRate::mbps(28);
  double frameRateHz{72.0};
  /// Pose uplink (head + controllers) rate and size.
  double poseRateHz{60.0};
  ByteSize poseBytes = ByteSize::bytes(96);
  /// Server-side render+encode time per frame per user (ms).
  double renderEncodeMsPerFrame{6.5};
  /// Client-side decode+display cost per frame (ms) — replaces scene
  /// rendering entirely; independent of avatar count.
  double clientDecodeCpuMs{2.5};
  double clientDecodeGpuMs{3.5};
  /// Server render capacity: frames-worth of ms per second per GPU.
  double serverGpuMsPerSec{1000.0};
};

/// Server: accepts viewers, streams rendered frames to each.
class RemoteRenderServer {
 public:
  RemoteRenderServer(Node& node, std::uint16_t port, RemoteRenderSpec spec = {});

  RemoteRenderServer(const RemoteRenderServer&) = delete;
  RemoteRenderServer& operator=(const RemoteRenderServer&) = delete;

  [[nodiscard]] std::size_t viewerCount() const { return viewers_.size(); }
  /// Server GPU utilization: render work demanded / capacity.
  [[nodiscard]] double serverGpuUtilization() const;
  [[nodiscard]] const RemoteRenderSpec& spec() const { return spec_; }

 private:
  void onDatagram(const Packet& p, const Endpoint& from);
  void frameTick();

  Node& node_;
  RemoteRenderSpec spec_;
  UdpSocket socket_;
  std::map<std::uint64_t, Endpoint> viewers_;
  std::unique_ptr<PeriodicTask> frameTask_;
  std::uint64_t framesStreamed_{0};
};

/// Client: uploads poses, decodes the incoming stream, drives the headset.
class RemoteRenderClient {
 public:
  RemoteRenderClient(HeadsetDevice& headset, Endpoint server,
                     std::uint64_t userId, RemoteRenderSpec spec = {});

  RemoteRenderClient(const RemoteRenderClient&) = delete;
  RemoteRenderClient& operator=(const RemoteRenderClient&) = delete;

  void start();
  void stop();

  [[nodiscard]] std::uint64_t framesReceived() const { return framesReceived_; }
  [[nodiscard]] HeadsetDevice& headset() { return headset_; }

 private:
  HeadsetDevice& headset_;
  Endpoint server_;
  std::uint64_t userId_;
  RemoteRenderSpec spec_;
  UdpSocket socket_;
  std::unique_ptr<PeriodicTask> poseTask_;
  std::uint64_t framesReceived_{0};
};

namespace rrmsg {
inline const MsgKind kPose{"rr:pose"};
inline const MsgKind kVideoFrame{"rr:frame"};
}  // namespace rrmsg

}  // namespace msim
