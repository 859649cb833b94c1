#include "util/rate.hpp"

#include <cmath>
#include <cstdio>

namespace msim {

namespace {

std::string formatWithUnit(double value, const char* unit) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g%s", value, unit);
  return buf;
}

}  // namespace

std::string ByteSize::toString() const {
  const double b = static_cast<double>(bytes_);
  const double mag = std::fabs(b);
  if (mag >= 1e9) return formatWithUnit(b / 1e9, "GB");
  if (mag >= 1e6) return formatWithUnit(b / 1e6, "MB");
  if (mag >= 1e3) return formatWithUnit(b / 1e3, "KB");
  return formatWithUnit(b, "B");
}

std::string DataRate::toString() const {
  if (isUnlimited()) return "unlimited";
  const double r = static_cast<double>(bitsPerSec_);
  if (r >= 1e9) return formatWithUnit(r / 1e9, "Gbps");
  if (r >= 1e6) return formatWithUnit(r / 1e6, "Mbps");
  if (r >= 1e3) return formatWithUnit(r / 1e3, "Kbps");
  return formatWithUnit(r, "bps");
}

DataRate rateOf(ByteSize size, Duration window) {
  if (window <= Duration::zero()) return DataRate::zero();
  const double bps = static_cast<double>(size.toBits()) / window.toSeconds();
  return DataRate::bps(static_cast<std::int64_t>(bps + 0.5));
}

}  // namespace msim
