#include "client/device.hpp"

namespace msim::devices {

DeviceSpec quest2() {
  DeviceSpec d;
  d.name = "Quest 2";
  d.refreshRateHz = 72.0;
  d.resolutionWidthPerEye = 1832;
  d.resolutionHeightPerEye = 1920;
  d.cpuBudgetMsPerFrame = 13.9;  // 1/72 s
  d.gpuBudgetMsPerFrame = 13.9;
  d.memoryCapacityGB = 6.0;
  d.batteryWh = 14.0;
  d.untethered = true;
  return d;
}

DeviceSpec viveCosmosPc() {
  DeviceSpec d;
  d.name = "VIVE Cosmos + PC";
  d.refreshRateHz = 90.0;
  d.resolutionWidthPerEye = 1440;
  d.resolutionHeightPerEye = 1700;
  // The tethered PC (i7-7700K, GTX 1070) has far more headroom per frame.
  d.cpuBudgetMsPerFrame = 11.1 * 3.0;
  d.gpuBudgetMsPerFrame = 11.1 * 3.5;
  d.memoryCapacityGB = 16.0;
  d.batteryWh = 0.0;  // mains-powered
  d.untethered = false;
  return d;
}

DeviceSpec desktopPc() {
  DeviceSpec d;
  d.name = "PC (2D)";
  d.refreshRateHz = 60.0;
  d.resolutionWidthPerEye = 1920;
  d.resolutionHeightPerEye = 1080;
  d.cpuBudgetMsPerFrame = 16.7 * 3.0;
  d.gpuBudgetMsPerFrame = 16.7 * 3.5;
  d.memoryCapacityGB = 16.0;
  d.batteryWh = 0.0;
  d.untethered = false;
  return d;
}

}  // namespace msim::devices
