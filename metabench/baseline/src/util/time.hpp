#pragma once

// Strongly-typed simulation time.
//
// The simulator runs on an integer nanosecond clock. Using strong types for
// durations and absolute time points (instead of raw integers or doubles)
// prevents the classic unit bugs of network simulators: mixing seconds with
// milliseconds, or adding two absolute timestamps.

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace msim {

/// A signed span of simulated time with nanosecond resolution.
///
/// Construct via the named factories (`Duration::millis(5)`,
/// `Duration::seconds(1.5)`) rather than the raw constructor, so the unit is
/// always visible at the call site.
class Duration {
 public:
  constexpr Duration() = default;

  // Factories take double and round to the nearest nanosecond; doubles are
  // exact for integer arguments at every scale a simulation uses.
  [[nodiscard]] static constexpr Duration nanos(std::int64_t ns) { return Duration{ns}; }
  [[nodiscard]] static constexpr Duration micros(double us) {
    return Duration{static_cast<std::int64_t>(us * 1e3 + (us >= 0 ? 0.5 : -0.5))};
  }
  [[nodiscard]] static constexpr Duration millis(double ms) {
    return Duration{static_cast<std::int64_t>(ms * 1e6 + (ms >= 0 ? 0.5 : -0.5))};
  }
  [[nodiscard]] static constexpr Duration seconds(double s) {
    return Duration{static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5))};
  }
  [[nodiscard]] static constexpr Duration minutes(double m) { return seconds(m * 60.0); }

  [[nodiscard]] static constexpr Duration zero() { return Duration{0}; }
  [[nodiscard]] static constexpr Duration max() {
    return Duration{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t toNanos() const { return ns_; }
  [[nodiscard]] constexpr double toMicros() const { return static_cast<double>(ns_) / 1e3; }
  [[nodiscard]] constexpr double toMillis() const { return static_cast<double>(ns_) / 1e6; }
  [[nodiscard]] constexpr double toSeconds() const { return static_cast<double>(ns_) / 1e9; }

  [[nodiscard]] constexpr bool isZero() const { return ns_ == 0; }
  [[nodiscard]] constexpr bool isNegative() const { return ns_ < 0; }

  constexpr Duration& operator+=(Duration other) { ns_ += other.ns_; return *this; }
  constexpr Duration& operator-=(Duration other) { ns_ -= other.ns_; return *this; }
  constexpr Duration& operator*=(double k) {
    ns_ = static_cast<std::int64_t>(static_cast<double>(ns_) * k);
    return *this;
  }

  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.ns_ + b.ns_}; }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.ns_ - b.ns_}; }
  friend constexpr Duration operator*(Duration a, double k) { Duration d = a; d *= k; return d; }
  friend constexpr Duration operator*(double k, Duration a) { return a * k; }
  friend constexpr Duration operator/(Duration a, std::int64_t k) { return Duration{a.ns_ / k}; }
  friend constexpr double operator/(Duration a, Duration b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }
  friend constexpr Duration operator-(Duration a) { return Duration{-a.ns_}; }

  friend constexpr auto operator<=>(Duration, Duration) = default;

  /// Human-readable rendering with an auto-selected unit, e.g. "3.08ms".
  [[nodiscard]] std::string toString() const;

 private:
  explicit constexpr Duration(std::int64_t ns) : ns_{ns} {}
  std::int64_t ns_{0};
};

/// An absolute instant on the simulation clock (nanoseconds since t=0).
class TimePoint {
 public:
  constexpr TimePoint() = default;

  [[nodiscard]] static constexpr TimePoint epoch() { return TimePoint{0}; }
  [[nodiscard]] static constexpr TimePoint fromNanos(std::int64_t ns) { return TimePoint{ns}; }
  [[nodiscard]] static constexpr TimePoint max() {
    return TimePoint{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t toNanos() const { return ns_; }
  [[nodiscard]] constexpr double toSeconds() const { return static_cast<double>(ns_) / 1e9; }
  [[nodiscard]] constexpr double toMillis() const { return static_cast<double>(ns_) / 1e6; }

  [[nodiscard]] constexpr Duration sinceEpoch() const { return Duration::nanos(ns_); }

  constexpr TimePoint& operator+=(Duration d) { ns_ += d.toNanos(); return *this; }
  constexpr TimePoint& operator-=(Duration d) { ns_ -= d.toNanos(); return *this; }

  friend constexpr TimePoint operator+(TimePoint t, Duration d) { return TimePoint{t.ns_ + d.toNanos()}; }
  friend constexpr TimePoint operator+(Duration d, TimePoint t) { return t + d; }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) { return TimePoint{t.ns_ - d.toNanos()}; }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) { return Duration::nanos(a.ns_ - b.ns_); }

  friend constexpr auto operator<=>(TimePoint, TimePoint) = default;

  [[nodiscard]] std::string toString() const;

 private:
  explicit constexpr TimePoint(std::int64_t ns) : ns_{ns} {}
  std::int64_t ns_{0};
};

}  // namespace msim
