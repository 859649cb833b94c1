#pragma once

// The §8 network-disruption driver: replays the paper's tc-netem schedules
// on a user's AP. Each restricted stage lasts 40 s; the link then returns to
// normal for 60 s ("N"), for a 300 s experiment.

#include <vector>

#include "core/testbed.hpp"

namespace msim {

/// One disruption stage.
struct DisruptionStage {
  NetemConfig config;
  Duration duration = Duration::seconds(40);
  std::string label;
};

/// Applies stage schedules to one user's uplink or downlink netem.
class Disruptor {
 public:
  enum class Direction : std::uint8_t { Uplink, Downlink };

  Disruptor(Testbed& bed, TestUser& user, Direction dir)
      : bed_{bed}, user_{user}, dir_{dir} {}

  /// Schedules `stages` back to back starting at `startAt`, then a reset
  /// ("N") period. Returns the end time of the whole schedule.
  TimePoint schedule(TimePoint startAt, const std::vector<DisruptionStage>& stages,
                     Duration recovery = Duration::seconds(60));

  // ---- the paper's §8 stage lists ----------------------------------------
  /// Downlink bandwidth: 1.0 / 0.7 / 0.5 / 0.3 / 0.2 / 0.1 Mbps.
  [[nodiscard]] static std::vector<DisruptionStage> downlinkBandwidthStages();
  /// Uplink bandwidth: 1.5 / 1.2 / 1.0 / 0.7 / 0.5 / 0.3 Mbps.
  [[nodiscard]] static std::vector<DisruptionStage> uplinkBandwidthStages();
  /// Extra latency: 50 / 100 / 200 / 300 / 400 / 500 ms.
  [[nodiscard]] static std::vector<DisruptionStage> latencyStages();
  /// Packet loss: 1 / 3 / 5 / 7 / 10 / 20 %.
  [[nodiscard]] static std::vector<DisruptionStage> lossStages();
  /// TCP-only uplink control (Fig. 13 bottom): +5 s / +10 s / +15 s delay
  /// (60 s each), then 100% loss for 60 s.
  [[nodiscard]] static std::vector<DisruptionStage> tcpOnlyStages();

 private:
  [[nodiscard]] Netem& netem() {
    return dir_ == Direction::Uplink ? user_.uplinkNetem() : user_.downlinkNetem();
  }

  Testbed& bed_;
  TestUser& user_;
  Direction dir_;
};

}  // namespace msim
