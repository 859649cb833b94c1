#pragma once

// Geography: regions, distances, and propagation delays.
//
// The paper measured from the U.S. east coast (primary testbed), the western
// U.S., the northern U.S., Europe, and the Middle East. Server placement and
// the RTTs of Table 2 are consequences of geography, so we model it directly:
// great-circle distance -> fiber propagation delay with an empirical path
// inflation factor.

#include <string>
#include <vector>

#include "util/time.hpp"

namespace msim {

/// A point on the globe.
struct GeoPoint {
  double latDeg{0.0};
  double lonDeg{0.0};
};

/// Great-circle distance in kilometres (haversine).
[[nodiscard]] double greatCircleKm(const GeoPoint& a, const GeoPoint& b);

/// One-way propagation delay between two points.
///
/// Fiber carries light at ~200,000 km/s; real paths are longer than the
/// great circle. Calibrated against the paper's Table 2: an east-coast
/// client saw 72.1 ms RTT to west-coast servers (inflation ~1.97 over the
/// ~3,650 km great circle), while Europe -> U.S. west coast measured
/// ~140 ms (long-haul routes are straighter, inflation ~1.6).
[[nodiscard]] Duration propagationDelay(const GeoPoint& a, const GeoPoint& b);

/// A named network region (metro area with a core router).
struct Region {
  std::string name;
  GeoPoint location;

  friend bool operator==(const Region& a, const Region& b) { return a.name == b.name; }
};

/// The regions used across the paper's experiments.
namespace regions {
[[nodiscard]] const Region& usEast();     // Ashburn, VA  (primary testbed)
[[nodiscard]] const Region& usWest();     // Los Angeles, CA
[[nodiscard]] const Region& usNorth();    // Chicago, IL  (traceroute vantage)
[[nodiscard]] const Region& europe();     // London, UK
[[nodiscard]] const Region& middleEast(); // Dubai, AE    (traceroute vantage)
/// All of the above, for sweeps.
[[nodiscard]] const std::vector<Region>& all();
}  // namespace regions

}  // namespace msim
