#pragma once

// Interest-management policy: which receivers a pose update reaches, and at
// what rate, as a pure function of sender→receiver geometry.
//
// The paper found exactly one culling mechanism in the wild — AltspaceVR's
// ~150° server-side viewport wedge (§6.1); everyone else relays all-to-all.
// Donnybrook-style distance LoD (§6.2) is the standard fix the paper
// discusses. This header expresses both, plus a hard interest radius, as one
// parameter block so the relay's fan-out loop has a single scan:
//
//   radius cull  →  distance band (decimation tier)  →  angular predicate
//
// A band is a closed annulus by squared distance; band 0 is the innermost.
// keepEvery[b] = k forwards one pose update in k (k = 1 keeps full rate).
// The squared radii live in fixed-size arrays so the per-receiver test is a
// couple of compares on values already in cache — no indirection, no heap.

#include <cstdint>
#include <limits>

namespace msim::interest {

/// Max distance bands; real configs use 3 (full / half / far-trickle).
inline constexpr int kMaxBands = 4;

struct InterestParams {
  /// Hard cull: receivers farther than this never see the sender at all,
  /// and the grid scan only visits cells inside this radius. <= 0 disables
  /// culling — every receiver is considered, as on the measured platforms.
  double cullRadiusM{0.0};
  /// AOI cell edge for the uniform grid (quantization step).
  double cellM{8.0};

  /// Distance-banded LoD tiers, nearest first. Band b applies when the
  /// squared distance is <= bandMaxSq[b]; the last band is open-ended.
  int bands{1};
  double bandMaxSq[kMaxBands]{std::numeric_limits<double>::infinity(), 0, 0, 0};
  std::uint32_t keepEvery[kMaxBands]{1, 1, 1, 1};

  /// Angular predicate (AltspaceVR §6.1): forward only inside a wedge of
  /// `widthDeg` around the receiver's (optionally predicted) facing.
  bool angular{false};
  double widthDeg{150.0};
  double predictionLeadMs{0.0};

  [[nodiscard]] bool cull() const { return cullRadiusM > 0.0; }
  [[nodiscard]] bool anyFilter() const {
    return cull() || bands > 1 || angular;
  }

  void clearBands() { bands = 0; }

  /// Appends a band reaching to `maxRadiusM` (negative = open-ended).
  void addBand(double maxRadiusM, std::uint32_t keep) {
    if (bands >= kMaxBands) return;
    bandMaxSq[bands] = maxRadiusM < 0.0
                           ? std::numeric_limits<double>::infinity()
                           : maxRadiusM * maxRadiusM;
    keepEvery[bands] = keep == 0 ? 1 : keep;
    ++bands;
  }

  /// Band index for a squared distance (branch-light: <= 3 compares).
  [[nodiscard]] int bandFor(double distSq) const {
    int b = 0;
    while (b + 1 < bands && distSq > bandMaxSq[b]) ++b;
    return b;
  }
};

}  // namespace msim::interest
