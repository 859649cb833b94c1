#include "platform/spec.hpp"

// The platform catalog. Every constant below is calibrated to a two-user or
// single-endpoint measurement in the paper (citations inline); multi-user
// behaviour emerges from the mechanisms, never from these numbers.
//
// Calibration notes on avatar rates: Table 3's avatar throughput was
// measured on the wire at the AP, so targets include per-datagram overhead
// (Eth+IP+UDP = 42 B; TLS adds 54+29 B per segment for Hubs):
//   AltspaceVR  20 Hz x  27 B payload -> (27+42)*20*8  = 11.0 Kbps (11.1)
//   VRChat      20 Hz x 112 B         -> (112+42)*20*8 = 24.6 Kbps (24.7)
//   Rec Room    20 Hz x 178 B         -> (178+42)*20*8 = 35.2 Kbps (35.2)
//   Hubs        20 Hz x 401 B (TLS)   -> (401+83)*20*8 = 77.4 Kbps (77.4)
//   Worlds      40 Hz x 996 B         -> (996+42)*40*8 = 332  Kbps (332)
// Update intervals also bound the sender-side latency (Table 4): an action
// waits on average half an update interval before leaving the headset.

namespace msim::platforms {

PlatformSpec altspaceVR() {
  PlatformSpec p;
  p.name = "AltspaceVR";
  p.features = FeatureSpec{"Microsoft", 2015, "Walk, Teleport",
                           /*facial=*/false, /*personal=*/true, /*game=*/true,
                           /*share=*/true, /*shopping=*/false, /*nft=*/false,
                           /*web=*/false};

  // Table 2: control anycast (3.08 ms), Microsoft-owned; ~10 s report
  // spikes of ~50/17 Kbps down/up (§4.1).
  p.control.placement = Placement::Anycast;
  p.control.owner = "Microsoft";
  p.control.spikeInterval = Duration::seconds(10);
  p.control.spikeUploadBytes = ByteSize::bytes(2'100);
  p.control.spikeDownloadBytes = ByteSize::bytes(6'250);

  // Table 2: data UDP, always U.S. west (72.1 ms from the east coast);
  // both users get the same server (§4.2). §6.1: ~150° viewport filter;
  // Table 4: the highest server latency (68.6 ms), attributed to viewport
  // prediction.
  p.data.protocol = DataProtocol::Udp;
  p.data.placement = Placement::FixedUsWest;
  p.data.owner = "Microsoft";
  p.data.sameServerForAllUsers = true;
  p.data.replicasPerSite = 1;
  p.data.viewportFilter = true;
  p.data.viewportWidthDeg = 150.0;
  p.data.serverProcMeanMs = 68.6;
  p.data.serverProcStdMs = 12.0;
  p.data.queueCoefMs = 3.8;
  // Table 3: total 41.3/40.4 Kbps vs 11.1 Kbps avatar -> ~30 Kbps misc.
  p.data.miscUplink = DataRate::kbps(30.0);
  p.data.miscDownlink = DataRate::kbps(29.0);

  // Fig. 4: no arms, no facial expressions; the most skeletal avatar.
  p.avatar.style = "cartoon";
  p.avatar.hasArms = false;
  p.avatar.facialExpressions = false;
  p.avatar.trackedComponents = 3;  // head + 2 controllers
  p.avatar.updateRateHz = 20.0;
  p.avatar.bytesPerUpdate = ByteSize::bytes(27);

  // §5.2: 541 MB app, 10-30 MB initialization download.
  p.content.appStoreSize = ByteSize::megabytes(541);
  p.content.initDownload = ByteSize::megabytes(20);

  // Fig. 8: AltspaceVR leans on the GPU as users grow (+25% GPU vs +15% CPU);
  // Table 3: the highest resolution (2016x2224).
  p.perf.renderWidth = 2016;
  p.perf.renderHeight = 2224;
  p.perf.cpuFrameBaseMs = 4.5;
  p.perf.cpuFrameMsPerAvatar = 0.25;
  p.perf.gpuFrameBaseMs = 6.5;
  p.perf.gpuFrameMsPerAvatar = 0.53;
  p.perf.cpuBackgroundBaseMsPerSec = 126.0;
  p.perf.cpuBackgroundMsPerAvatarPerSec = 6.4;
  p.perf.gpuCompositorMsPerVsync = 1.5;
  p.perf.memoryBaseGB = 1.06;
  // Table 4: sender 24.5/5.2, receiver 36.1/9.9.
  p.perf.senderProcMeanMs = 0.5;
  p.perf.senderProcStdMs = 0.3;
  p.perf.receiverProcMeanMs = 9.0;
  p.perf.receiverProcStdMs = 7.0;

  // §8.2: only low-interactivity Q&A games; no shooting-game load.
  p.game.available = true;
  p.game.exampleTitle = "Q&A trivia";
  return p;
}

PlatformSpec hubs() {
  PlatformSpec p;
  p.name = "Hubs";
  p.features = FeatureSpec{"Mozilla", 2018, "Walk, Fly, Teleport",
                           false, false, false, true, false, false,
                           /*web=*/true};

  // Table 2: HTTPS on AWS, always U.S. west (74.1 ms); the WebRTC SFU is a
  // single "central routing machine" (§4.1), also west (73.5 ms).
  p.control.placement = Placement::FixedUsWest;
  p.control.owner = "AWS";

  p.data.protocol = DataProtocol::HttpsStream;
  p.data.placement = Placement::FixedUsWest;
  p.data.owner = "AWS";
  p.data.sameServerForAllUsers = true;
  p.data.replicasPerSite = 1;
  // Table 4: public server 52.2 ms vs private t3.medium 16.2 ms (~70% cut):
  // same software, worse provisioning.
  p.data.serverProcMeanMs = 16.2;
  p.data.serverProcStdMs = 2.4;
  p.data.provisioningFactor = 3.22;
  p.data.queueCoefMs = 5.0;
  p.data.miscUplink = DataRate::kbps(5.5);
  p.data.miscDownlink = DataRate::kbps(5.5);

  // Fig. 4: no arms, no facial expressions, but HTTPS framing makes each
  // update expensive on the wire (§5.2).
  p.avatar.style = "cartoon";
  p.avatar.hasArms = false;
  p.avatar.facialExpressions = false;
  p.avatar.trackedComponents = 3;
  p.avatar.updateRateHz = 20.0;
  p.avatar.bytesPerUpdate = ByteSize::bytes(401);

  // §5.2: browser app; ~20 MB re-downloaded on every join (no caching —
  // the bug the authors reported to Mozilla).
  p.content.appStoreSize = ByteSize::zero();
  p.content.perJoinDownload = ByteSize::megabytes(20);
  p.content.cachesBackground = false;

  // Fig. 7/8: browser overhead -> highest CPU (≈100% at 15 users), FPS
  // 72 -> 60 at 5 users -> 33 at 15.
  p.perf.renderWidth = 1216;
  p.perf.renderHeight = 1344;
  p.perf.cpuFrameBaseMs = 9.0;
  p.perf.cpuFrameMsPerAvatar = 0.56;
  p.perf.frameCostJitter = 0.18;  // browser GC spikes
  p.perf.gpuFrameBaseMs = 6.0;
  p.perf.gpuFrameMsPerAvatar = 0.55;
  p.perf.cpuBackgroundBaseMsPerSec = 20.0;
  p.perf.cpuBackgroundMsPerAvatarPerSec = 22.4;
  p.perf.gpuCompositorMsPerVsync = 2.5;
  p.perf.memoryBaseGB = 1.26;
  // Table 4: sender 42.4/6.3, receiver 60.1/6.5 — the Web stack costs.
  p.perf.senderProcMeanMs = 14.0;
  p.perf.senderProcStdMs = 5.0;
  p.perf.receiverProcMeanMs = 30.0;
  p.perf.receiverProcStdMs = 6.0;

  p.game.available = false;  // Table 1: the only platform without games
  return p;
}

PlatformSpec hubsPrivate() {
  PlatformSpec p = hubs();
  p.name = "Hubs*";
  // §7: self-hosted on an east-coast t3.medium: nearby and well-provisioned.
  p.control.placement = Placement::FixedUsEast;
  p.data.placement = Placement::FixedUsEast;
  p.data.provisioningFactor = 1.0;
  p.data.queueCoefMs = 5.0;
  // The authors' private room is a plain test scene — lighter base render
  // cost than public worlds, which is what lets Fig. 9's event start near
  // 50 FPS at 15 users and still lose ~32% by 28 (Fig. 9).
  p.perf.cpuFrameBaseMs = 6.0;
  p.perf.cpuFrameMsPerAvatar = 0.274;
  p.perf.cpuFrameMsPerAvatarSq = 0.021;
  return p;
}

PlatformSpec recRoom() {
  PlatformSpec p;
  p.name = "Rec Room";
  p.features = FeatureSpec{"Rec Room", 2016, "Walk, Jump, Teleport",
                           true, true, true, false, true, true,
                           /*web=*/false};

  // Table 2: control on ANS anycast (2.21 ms), data on Cloudflare anycast
  // (2.97 ms).
  p.control.placement = Placement::Anycast;
  p.control.owner = "ANS";
  p.data.protocol = DataProtocol::Udp;
  p.data.placement = Placement::Anycast;
  p.data.owner = "Cloudflare";
  p.data.replicasPerSite = 2;  // users land on different servers (§4.2)
  p.data.serverProcMeanMs = 29.9;
  p.data.serverProcStdMs = 6.4;
  p.data.queueCoefMs = 3.4;
  p.data.miscUplink = DataRate::kbps(6.5);
  p.data.miscDownlink = DataRate::kbps(6.3);

  // Fig. 4: no arms but simple facial expressions (laughing, sadness).
  p.avatar.style = "cartoon";
  p.avatar.hasArms = false;
  p.avatar.facialExpressions = true;
  p.avatar.trackedComponents = 4;
  p.avatar.updateRateHz = 20.0;
  p.avatar.bytesPerUpdate = ByteSize::bytes(178);
  p.avatar.expressionEventRateHz = 0.2;
  p.avatar.bytesPerExpressionEvent = ByteSize::bytes(48);

  // §5.2: 1.41 GB app pre-bundles the backgrounds; no launch download.
  p.content.appStoreSize = ByteSize::gigabytes(1.41);

  p.perf.renderWidth = 1224;
  p.perf.renderHeight = 1346;
  p.perf.cpuFrameBaseMs = 5.6;
  p.perf.cpuFrameMsPerAvatar = 0.55;
  p.perf.gpuFrameBaseMs = 5.0;
  p.perf.gpuFrameMsPerAvatar = 0.35;
  p.perf.cpuBackgroundBaseMsPerSec = 50.0;
  p.perf.cpuBackgroundMsPerAvatarPerSec = 3.0;
  p.perf.gpuCompositorMsPerVsync = 1.0;
  p.perf.memoryBaseGB = 1.56;
  // Table 4: sender 25.9/8.6, receiver 39.9/7.8.
  p.perf.senderProcMeanMs = 0.5;
  p.perf.senderProcStdMs = 0.3;
  p.perf.receiverProcMeanMs = 8.0;
  p.perf.receiverProcStdMs = 7.0;

  // §8: Laser Tag raises the data channel to ~75 Kbps total.
  p.game.available = true;
  p.game.exampleTitle = "Laser Tag";
  p.game.gameUplink = DataRate::kbps(33.0);
  p.game.gameDownlink = DataRate::kbps(33.0);
  return p;
}

PlatformSpec vrchat() {
  PlatformSpec p;
  p.name = "VRChat";
  p.features = FeatureSpec{"VRChat", 2017, "Walk, Jump, Teleport",
                           true, true, true, false, false, false,
                           /*web=*/false};

  // Table 2: control HTTPS on east-coast AWS (2.32 ms), data on Cloudflare
  // anycast (3.24 ms).
  p.control.placement = Placement::NearestRegion;
  p.control.owner = "AWS";
  p.data.protocol = DataProtocol::Udp;
  p.data.placement = Placement::Anycast;
  p.data.owner = "Cloudflare";
  p.data.replicasPerSite = 2;
  p.data.serverProcMeanMs = 33.5;
  p.data.serverProcStdMs = 9.5;
  p.data.queueCoefMs = 3.4;
  p.data.miscUplink = DataRate::kbps(6.7);
  p.data.miscDownlink = DataRate::kbps(6.6);

  // Fig. 4: the only full-body avatar; facial expressions.
  p.avatar.style = "cartoon";
  p.avatar.hasArms = true;
  p.avatar.facialExpressions = true;
  p.avatar.fullBody = true;
  p.avatar.trackedComponents = 6;
  p.avatar.updateRateHz = 20.0;
  p.avatar.bytesPerUpdate = ByteSize::bytes(112);
  p.avatar.expressionEventRateHz = 0.2;
  p.avatar.bytesPerExpressionEvent = ByteSize::bytes(40);

  // §5.2: 793 MB app, 10-30 MB init download.
  p.content.appStoreSize = ByteSize::megabytes(793);
  p.content.initDownload = ByteSize::megabytes(25);

  p.perf.renderWidth = 1440;
  p.perf.renderHeight = 1584;
  p.perf.cpuFrameBaseMs = 6.2;
  p.perf.cpuFrameMsPerAvatar = 0.57;
  p.perf.gpuFrameBaseMs = 6.0;
  p.perf.gpuFrameMsPerAvatar = 0.44;
  p.perf.cpuBackgroundBaseMsPerSec = 104.0;
  p.perf.cpuBackgroundMsPerAvatarPerSec = 0.5;
  p.perf.gpuCompositorMsPerVsync = 1.0;
  p.perf.memoryBaseGB = 1.46;
  // Table 4: sender 27.3/6.2, receiver 37.4/6.4.
  p.perf.senderProcMeanMs = 1.0;
  p.perf.senderProcStdMs = 0.5;
  p.perf.receiverProcMeanMs = 7.0;
  p.perf.receiverProcStdMs = 6.0;

  // §8: Voxel Shooting runs at ~40 Kbps total.
  p.game.available = true;
  p.game.exampleTitle = "Voxel Shooting";
  p.game.gameUplink = DataRate::kbps(8.0);
  p.game.gameDownlink = DataRate::kbps(8.0);
  return p;
}

PlatformSpec worlds() {
  PlatformSpec p;
  p.name = "Worlds";
  p.features = FeatureSpec{"Meta", 2021, "Walk, Teleport",
                           true, true, true, false, false, false,
                           /*web=*/false};

  // Table 2: both channels on Meta's own east-coast servers (2.2-2.7 ms);
  // §4.1: ~300 Kbps uplink report spike every ~10 s, no downlink spike;
  // §8.1: this channel also synchronizes game clocks.
  p.control.placement = Placement::NearestRegion;
  p.control.owner = "Meta";
  p.control.spikeInterval = Duration::seconds(10);
  p.control.spikeUploadBytes = ByteSize::bytes(37'500);
  p.control.spikeDownloadBytes = ByteSize::zero();
  p.control.carriesClockSync = true;

  p.data.protocol = DataProtocol::Udp;
  p.data.placement = Placement::NearestRegion;
  p.data.owner = "Meta";
  p.data.replicasPerSite = 2;
  p.data.serverProcMeanMs = 40.2;
  p.data.serverProcStdMs = 11.0;
  p.data.queueCoefMs = 4.7;
  p.data.maxEventUsers = 16;  // §6.2: recommended 8-12, actual cap 16
  // Table 3 / Fig. 3: uplink 752 vs downlink 413 Kbps — the server consumes
  // ~412 Kbps of client status instead of forwarding it (§5.1).
  p.data.miscUplink = DataRate::kbps(8.0);
  p.data.miscDownlink = DataRate::kbps(81.0);
  p.data.uplinkStatusRate = DataRate::kbps(412.0);

  // Fig. 4/5: the only human-like avatar; gesture-driven facial
  // expressions via controller tracking.
  p.avatar.style = "human-like";
  p.avatar.humanLike = true;
  p.avatar.hasArms = true;
  p.avatar.facialExpressions = true;
  p.avatar.trackedComponents = 8;
  p.avatar.updateRateHz = 40.0;
  p.avatar.bytesPerUpdate = ByteSize::bytes(996);
  p.avatar.expressionEventRateHz = 0.5;
  p.avatar.bytesPerExpressionEvent = ByteSize::bytes(96);

  // §5.2: 1.13 GB app; ~5 MB "Preparing for Visitors" every launch.
  p.content.appStoreSize = ByteSize::gigabytes(1.13);
  p.content.perLaunchDownload = ByteSize::megabytes(5);

  // Fig. 7: the smallest FPS drop (25% at 15 users) despite the richest
  // avatar; Fig. 8: the largest memory footprint (~2 GB at 15 users).
  p.perf.renderWidth = 1440;
  p.perf.renderHeight = 1584;
  p.perf.cpuFrameBaseMs = 5.5;
  p.perf.cpuFrameMsPerAvatar = 0.30;
  p.perf.gpuFrameBaseMs = 7.5;
  p.perf.gpuFrameMsPerAvatar = 0.42;
  p.perf.cpuBackgroundBaseMsPerSec = 104.0;
  p.perf.cpuBackgroundMsPerAvatarPerSec = 5.1;
  p.perf.gpuCompositorMsPerVsync = 1.0;
  p.perf.memoryBaseGB = 1.86;
  // Table 4: sender 26.2/4.5, receiver 49.1/9.1 (rich avatar rendering).
  p.perf.senderProcMeanMs = 11.0;
  p.perf.senderProcStdMs = 3.0;
  p.perf.receiverProcMeanMs = 17.0;
  p.perf.receiverProcStdMs = 8.0;

  // §8: Arena Clash (~1.2 Mbps up / ~0.7 Mbps down overall); TCP has
  // priority over UDP on the uplink.
  p.game.available = true;
  p.game.exampleTitle = "Arena Clash";
  p.game.gameUplink = DataRate::kbps(450.0);
  p.game.gameDownlink = DataRate::kbps(290.0);
  p.game.tcpPriorityCoupling = true;
  return p;
}

std::vector<PlatformSpec> allFive() {
  return {altspaceVR(), hubs(), recRoom(), vrchat(), worlds()};
}

}  // namespace msim::platforms

namespace msim {

const char* toString(Placement p) {
  switch (p) {
    case Placement::Anycast: return "anycast";
    case Placement::NearestRegion: return "nearest-region";
    case Placement::FixedUsWest: return "us-west";
    case Placement::FixedUsEast: return "us-east";
  }
  return "?";
}

}  // namespace msim
