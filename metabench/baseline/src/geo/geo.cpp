#include "geo/geo.hpp"

#include <cmath>

namespace msim {

namespace {
constexpr double kEarthRadiusKm = 6371.0;
constexpr double kFiberKmPerSec = 200'000.0;
constexpr double kShortHaulInflation = 1.97;  // intra-continental (Table 2 fit)
constexpr double kLongHaulInflation = 1.60;   // inter-continental (Table 2 fit)
constexpr double kInflationCutoverKm = 5'000.0;

double deg2rad(double d) { return d * M_PI / 180.0; }
}  // namespace

double greatCircleKm(const GeoPoint& a, const GeoPoint& b) {
  const double lat1 = deg2rad(a.latDeg);
  const double lat2 = deg2rad(b.latDeg);
  const double dLat = lat2 - lat1;
  const double dLon = deg2rad(b.lonDeg - a.lonDeg);
  const double h = std::sin(dLat / 2) * std::sin(dLat / 2) +
                   std::cos(lat1) * std::cos(lat2) * std::sin(dLon / 2) * std::sin(dLon / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::sqrt(h));
}

Duration propagationDelay(const GeoPoint& a, const GeoPoint& b) {
  const double km = greatCircleKm(a, b);
  const double inflation =
      km < kInflationCutoverKm ? kShortHaulInflation : kLongHaulInflation;
  return Duration::seconds(km * inflation / kFiberKmPerSec);
}

namespace regions {

const Region& usEast() {
  static const Region r{"us-east", GeoPoint{39.04, -77.49}};
  return r;
}
const Region& usWest() {
  static const Region r{"us-west", GeoPoint{34.05, -118.24}};
  return r;
}
const Region& usNorth() {
  static const Region r{"us-north", GeoPoint{41.88, -87.63}};
  return r;
}
const Region& europe() {
  static const Region r{"europe", GeoPoint{51.51, -0.13}};
  return r;
}
const Region& middleEast() {
  static const Region r{"middle-east", GeoPoint{25.20, 55.27}};
  return r;
}
const std::vector<Region>& all() {
  static const std::vector<Region> v{usEast(), usWest(), usNorth(), europe(),
                                     middleEast()};
  return v;
}

}  // namespace regions

}  // namespace msim
