#include "util/time.hpp"

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

std::string Duration::toString() const {
  const double ns = static_cast<double>(ns_);
  const double mag = std::fabs(ns);
  if (mag >= 1e9) return formatWithUnit(ns / 1e9, "s");
  if (mag >= 1e6) return formatWithUnit(ns / 1e6, "ms");
  if (mag >= 1e3) return formatWithUnit(ns / 1e3, "us");
  return formatWithUnit(ns, "ns");
}

std::string TimePoint::toString() const {
  return formatWithUnit(toSeconds(), "s");
}

}  // namespace msim
