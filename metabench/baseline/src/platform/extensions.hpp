#pragma once

// Extension platform specs beyond the paper's five.
//
// §6.3 notes the authors' prior work [14] found the same throughput
// scalability problem in Horizon Workrooms (Meta's meetings product),
// concluding "scalability is indeed a common problem faced by today's
// social VR platforms". This catalog entry lets the scalability benches
// re-make that point. Its constants are plausible estimates for a
// Workrooms-class meetings app (seated, human-like avatars, optional
// screen-share) — NOT calibrated to IMC '22 measurements; treat results
// as qualitative.

#include "platform/spec.hpp"

namespace msim::platforms {

/// Horizon Workrooms-like meetings platform (extension, uncalibrated).
[[nodiscard]] PlatformSpec workrooms();

}  // namespace msim::platforms
