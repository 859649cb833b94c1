#pragma once

// Strongly-typed data rates and sizes.
//
// Throughput is the paper's central metric; keeping bits, bytes, Kbps and
// Mbps in distinct, named constructors removes an entire class of unit bugs.

#include <cstdint>
#include <compare>
#include <string>

#include "util/time.hpp"

namespace msim {

/// A quantity of data in bytes.
class ByteSize {
 public:
  constexpr ByteSize() = default;

  [[nodiscard]] static constexpr ByteSize bytes(std::int64_t b) { return ByteSize{b}; }
  [[nodiscard]] static constexpr ByteSize kilobytes(double kb) {
    return ByteSize{static_cast<std::int64_t>(kb * 1e3 + 0.5)};
  }
  [[nodiscard]] static constexpr ByteSize megabytes(double mb) {
    return ByteSize{static_cast<std::int64_t>(mb * 1e6 + 0.5)};
  }
  [[nodiscard]] static constexpr ByteSize gigabytes(double gb) {
    return ByteSize{static_cast<std::int64_t>(gb * 1e9 + 0.5)};
  }
  [[nodiscard]] static constexpr ByteSize zero() { return ByteSize{0}; }

  [[nodiscard]] constexpr std::int64_t toBytes() const { return bytes_; }
  [[nodiscard]] constexpr std::int64_t toBits() const { return bytes_ * 8; }
  [[nodiscard]] constexpr double toKilobytes() const { return static_cast<double>(bytes_) / 1e3; }
  [[nodiscard]] constexpr double toMegabytes() const { return static_cast<double>(bytes_) / 1e6; }
  [[nodiscard]] constexpr bool isZero() const { return bytes_ == 0; }

  constexpr ByteSize& operator+=(ByteSize o) { bytes_ += o.bytes_; return *this; }
  constexpr ByteSize& operator-=(ByteSize o) { bytes_ -= o.bytes_; return *this; }

  friend constexpr ByteSize operator+(ByteSize a, ByteSize b) { return ByteSize{a.bytes_ + b.bytes_}; }
  friend constexpr ByteSize operator-(ByteSize a, ByteSize b) { return ByteSize{a.bytes_ - b.bytes_}; }
  friend constexpr ByteSize operator*(ByteSize a, std::int64_t k) { return ByteSize{a.bytes_ * k}; }
  friend constexpr auto operator<=>(ByteSize, ByteSize) = default;

  [[nodiscard]] std::string toString() const;

 private:
  explicit constexpr ByteSize(std::int64_t b) : bytes_{b} {}
  std::int64_t bytes_{0};
};

/// A data rate in bits per second.
class DataRate {
 public:
  constexpr DataRate() = default;

  [[nodiscard]] static constexpr DataRate bps(std::int64_t v) { return DataRate{v}; }
  [[nodiscard]] static constexpr DataRate kbps(double v) {
    return DataRate{static_cast<std::int64_t>(v * 1e3 + 0.5)};
  }
  [[nodiscard]] static constexpr DataRate mbps(double v) {
    return DataRate{static_cast<std::int64_t>(v * 1e6 + 0.5)};
  }
  [[nodiscard]] static constexpr DataRate gbps(double v) {
    return DataRate{static_cast<std::int64_t>(v * 1e9 + 0.5)};
  }
  [[nodiscard]] static constexpr DataRate zero() { return DataRate{0}; }
  /// Sentinel for an unshaped/unlimited link direction.
  [[nodiscard]] static constexpr DataRate unlimited() { return DataRate{-1}; }

  [[nodiscard]] constexpr bool isUnlimited() const { return bitsPerSec_ < 0; }
  [[nodiscard]] constexpr bool isZero() const { return bitsPerSec_ == 0; }
  [[nodiscard]] constexpr std::int64_t toBps() const { return bitsPerSec_; }
  [[nodiscard]] constexpr double toKbps() const { return static_cast<double>(bitsPerSec_) / 1e3; }
  [[nodiscard]] constexpr double toMbps() const { return static_cast<double>(bitsPerSec_) / 1e6; }

  /// Time to serialize `size` onto a link of this rate. Zero if unlimited.
  [[nodiscard]] Duration transmissionTime(ByteSize size) const {
    if (isUnlimited() || isZero()) return Duration::zero();
    const double secs = static_cast<double>(size.toBits()) / static_cast<double>(bitsPerSec_);
    return Duration::seconds(secs);
  }

  friend constexpr auto operator<=>(DataRate, DataRate) = default;

  [[nodiscard]] std::string toString() const;

 private:
  explicit constexpr DataRate(std::int64_t bps) : bitsPerSec_{bps} {}
  std::int64_t bitsPerSec_{0};
};

/// Rate achieved when `size` is moved in `window` (0 if window is empty).
[[nodiscard]] DataRate rateOf(ByteSize size, Duration window);

}  // namespace msim
