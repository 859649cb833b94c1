#pragma once

// WHOIS ownership and MaxMind/ipinfo-style geolocation over address blocks.
//
// Table 2's "Server Loc. / Owner" column came from WHOIS plus MaxMind and
// ipinfo.io lookups; this registry reproduces those data sources for the
// simulated address plan. Like the real databases, entries for anycast
// prefixes return the *registration* location, which is why the paper (and
// our tools) mark anycast server locations as "-".

#include <optional>
#include <string>
#include <vector>

#include "geo/geo.hpp"
#include "net/address.hpp"

namespace msim {

struct WhoisRecord {
  Ipv4Address prefix;
  int prefixLen{0};
  std::string owner;         // e.g. "Microsoft", "AWS", "Cloudflare", "ANS"
  std::string geoRegionName; // registered location; may mislead for anycast
  bool anycastBlock{false};
};

/// A longest-prefix-match registry of ownership and geolocation data.
class WhoisDb {
 public:
  void add(WhoisRecord record);

  /// Longest-prefix match; nullopt when the address is unregistered.
  [[nodiscard]] std::optional<WhoisRecord> lookup(Ipv4Address addr) const;

  [[nodiscard]] std::string ownerOf(Ipv4Address addr) const;
  /// Registered geolocation name ("-" when unknown).
  [[nodiscard]] std::string geolocate(Ipv4Address addr) const;

 private:
  std::vector<WhoisRecord> records_;  // sorted by descending prefixLen
};

/// The simulated global address plan, shared by the platform catalog, the
/// WHOIS registry, and the benches (values documented in DESIGN.md).
namespace addrplan {
// Provider blocks (/16).
inline constexpr Ipv4Address kMicrosoftBlock{100, 1, 0, 0};
inline constexpr Ipv4Address kMetaBlock{100, 2, 0, 0};
inline constexpr Ipv4Address kAwsBlock{100, 3, 0, 0};
inline constexpr Ipv4Address kCloudflareBlock{100, 4, 0, 0};
inline constexpr Ipv4Address kAnsBlock{100, 5, 0, 0};
// Client/campus space.
inline constexpr Ipv4Address kCampusBlock{10, 0, 0, 0};
// Core routers.
inline constexpr Ipv4Address kCoreBlock{198, 18, 0, 0};

/// A default WHOIS registry covering the plan above.
[[nodiscard]] WhoisDb defaultWhois();
}  // namespace addrplan

}  // namespace msim
