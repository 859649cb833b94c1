#include "core/latency.hpp"

namespace msim {

LatencyProbe::LatencyProbe(Testbed& bed, TestUser& sender, TestUser& receiver)
    : bed_{bed}, sender_{sender}, receiver_{receiver} {
  // One-time ADB clock sync of both headsets against the AP clock (§7).
  senderOffsetEst_ = AdbClockSync::estimateOffset(*sender_.headset,
                                                  bed_.sim().rng());
  receiverOffsetEst_ = AdbClockSync::estimateOffset(*receiver_.headset,
                                                    bed_.sim().rng());
  serverTimes_ = std::make_shared<FlatMap64<std::pair<TimePoint, TimePoint>>>();
  auto times = serverTimes_;
  // Record only the forward that reaches *our* probe receiver; an event may
  // fan out to many users, each with its own queueing delay.
  const std::uint64_t receiverId = receiver.client->userId();
  bed_.deployment().room()->hooks().onActionForwarded =
      [times, receiverId](std::uint64_t actionId, std::uint64_t toUser,
                          TimePoint in, TimePoint out) {
        // Keep the first forward only (emplace semantics).
        if (toUser == receiverId && !times->contains(actionId)) {
          times->insert(actionId, std::make_pair(in, out));
        }
      };
}

void LatencyProbe::scheduleProbes(TimePoint firstAt, int count,
                                  Duration interval) {
  for (int i = 0; i < count; ++i) {
    // Human actions are phase-random relative to the app's update loop; the
    // jitter keeps probes from aliasing onto update ticks.
    const Duration jitter =
        Duration::millis(bed_.sim().rng().uniform(0.0, 500.0));
    bed_.sim().schedule(firstAt + interval * static_cast<double>(i) + jitter,
                        [this] { fireProbe(); });
  }
}

void LatencyProbe::fireProbe() {
  const std::uint64_t actionId = bed_.nextActionId();
  probes_.push_back(Probe{actionId, bed_.sim().now()});
  sender_.client->performVisibleAction(actionId);
}

LatencyStats LatencyProbe::collect() const {
  LatencyStats stats;
  stats.attempted = static_cast<int>(probes_.size());
  for (const Probe& probe : probes_) {
    LatencySample s;
    s.actionId = probe.actionId;

    // --- screen-recording E2E (the paper's headline method) ---------------
    const auto shownReceiverLocal =
        receiver_.headset->firstDisplayLocal(probe.actionId);
    if (!shownReceiverLocal) continue;  // action never made it to the screen
    // Sender reference: the last frame displayed before the action happened.
    const TimePoint actionSenderLocal =
        probe.performedAt + sender_.headset->trueClockOffset();
    const auto refSenderLocal =
        sender_.headset->lastDisplayAtOrBeforeLocal(actionSenderLocal);
    if (!refSenderLocal) continue;
    // Correct both local clocks with the estimated offsets.
    const double receiverAp =
        (*shownReceiverLocal - receiverOffsetEst_).toMillis();
    const double senderAp = (*refSenderLocal - senderOffsetEst_).toMillis();
    s.e2eMs = receiverAp - senderAp;

    // --- breakdown from AP packet timestamps ------------------------------
    const auto upAtSenderAp = sender_.capture->firstUplinkAction(probe.actionId);
    const auto downAtReceiverAp =
        receiver_.capture->firstDownlinkAction(probe.actionId);
    const std::pair<TimePoint, TimePoint>* serverSpan =
        serverTimes_->find(probe.actionId);
    if (upAtSenderAp && downAtReceiverAp && serverSpan != nullptr) {
      s.senderMs = (*upAtSenderAp - probe.performedAt).toMillis();
      s.serverMs = (serverSpan->second - serverSpan->first).toMillis();
      s.networkMs =
          (*downAtReceiverAp - *upAtSenderAp).toMillis() - s.serverMs;
      s.receiverMs = s.e2eMs - s.senderMs - s.serverMs - s.networkMs;
      s.complete = true;
    }

    stats.e2e.add(s.e2eMs);
    if (s.complete) {
      stats.sender.add(s.senderMs);
      stats.server.add(s.serverMs);
      stats.network.add(s.networkMs);
      stats.receiver.add(s.receiverMs);
    }
    ++stats.completed;
  }
  return stats;
}

}  // namespace msim
