#pragma once

// IPv4-style addressing for the simulated internet.
//
// Addresses are plain 32-bit values with dotted-quad formatting; the geo
// module assigns blocks per provider/region so WHOIS/MaxMind-style lookups
// (Table 2) work the same way the paper's did.

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace msim {

/// A 32-bit network address.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  explicit constexpr Ipv4Address(std::uint32_t value) : value_{value} {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : value_{(std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | std::uint32_t{d}} {}

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] constexpr bool isUnspecified() const { return value_ == 0; }

  /// True if this address falls inside prefix/len.
  [[nodiscard]] constexpr bool inPrefix(Ipv4Address prefix, int prefixLen) const {
    if (prefixLen <= 0) return true;
    if (prefixLen >= 32) return value_ == prefix.value_;
    const std::uint32_t mask = ~std::uint32_t{0} << (32 - prefixLen);
    return (value_ & mask) == (prefix.value_ & mask);
  }

  friend constexpr auto operator<=>(Ipv4Address, Ipv4Address) = default;

  [[nodiscard]] std::string toString() const;

 private:
  std::uint32_t value_{0};
};

/// An (address, port) pair.
struct Endpoint {
  Ipv4Address addr;
  std::uint16_t port{0};

  friend constexpr auto operator<=>(const Endpoint&, const Endpoint&) = default;
  [[nodiscard]] std::string toString() const;
};

}  // namespace msim

template <>
struct std::hash<msim::Ipv4Address> {
  std::size_t operator()(const msim::Ipv4Address& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};

template <>
struct std::hash<msim::Endpoint> {
  std::size_t operator()(const msim::Endpoint& e) const noexcept {
    return std::hash<std::uint64_t>{}(
        (std::uint64_t{e.addr.value()} << 16) ^ e.port);
  }
};
