#pragma once

// Client device models.
//
// The paper's primary device is the (untethered) Oculus Quest 2 — 72 Hz
// refresh, 1832x1920 per eye, ~6 GB RAM — with an HTC VIVE Cosmos + PC and a
// plain PC as secondary devices (§3.2). The budgets below size the render
// pipeline: a frame whose CPU or GPU cost exceeds its budget misses vsync
// and the compositor re-shows the previous frame (a "stale frame").

#include <string>

#include "util/rate.hpp"
#include "util/time.hpp"

namespace msim {

struct DeviceSpec {
  std::string name;
  double refreshRateHz{72.0};
  int resolutionWidthPerEye{1832};
  int resolutionHeightPerEye{1920};
  /// CPU / GPU milliseconds available per frame interval at 100% use.
  double cpuBudgetMsPerFrame{13.9};
  double gpuBudgetMsPerFrame{13.9};
  double memoryCapacityGB{6.0};
  /// Battery capacity and the power model (idle + per-% utilization).
  /// Calibrated so a fully-loaded Quest 2 draws ~7 W — <10% of the battery
  /// per 10 minutes, matching §6.2.
  double batteryWh{14.0};
  double idlePowerW{2.5};
  double cpuMaxPowerW{2.2};
  double gpuMaxPowerW{2.5};
  bool untethered{true};
};

namespace devices {
/// Oculus Quest 2 (the paper's primary device; default 72 Hz).
[[nodiscard]] DeviceSpec quest2();
/// HTC VIVE Cosmos tethered to the i7-7700K / GTX 1070 PC.
[[nodiscard]] DeviceSpec viveCosmosPc();
/// The bare PC joining as a 2D desktop client.
[[nodiscard]] DeviceSpec desktopPc();
}  // namespace devices

}  // namespace msim
