#pragma once

// Chained event-order digests — the runtime half of the determinism
// verification layer (the static half is tools/detlint).
//
// The reproduction's headline guarantee is that one seed produces one
// behaviour for any MSIM_THREADS. A Digest turns that claim into a checked
// invariant: the Simulator (when auditing is enabled) folds every dispatched
// event into an FNV-1a chain, so two runs that dispatch even one event in a
// different order — or a different number of RNG draws — end with different
// digests. A Trail optionally records the chain value after every event,
// which is what lets a divergence report name the *first* mismatching event
// index instead of just "the hashes differ".

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace msim::audit {

/// Incremental FNV-1a over 64-bit words and byte strings.
class Digest {
 public:
  static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  [[nodiscard]] std::uint64_t value() const { return h_; }

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= kPrime;
    }
  }

  void mix(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= kPrime;
    }
  }

  void reset() { h_ = kOffsetBasis; }

 private:
  std::uint64_t h_{kOffsetBasis};
};

/// Combines a finished event-chain digest with auxiliary counters (RNG draw
/// counts, executed-event totals) into one comparable fingerprint value.
[[nodiscard]] inline std::uint64_t combine(std::uint64_t chain,
                                           std::uint64_t aux) {
  Digest d;
  d.mix(chain);
  d.mix(aux);
  return d.value();
}

/// Per-event chain values of one audited run. Element i is the digest value
/// after dispatching event i, so comparing two trails locates the first
/// divergent event exactly.
using Trail = std::vector<std::uint64_t>;

/// Index of the first event where the two trails disagree; a trail that is a
/// strict prefix of the other diverges at its own length. Equal trails
/// return `npos`.
inline constexpr std::size_t kNoDivergence = static_cast<std::size_t>(-1);

[[nodiscard]] inline std::size_t firstDivergence(const Trail& a,
                                                 const Trail& b) {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  return a.size() == b.size() ? kNoDivergence : n;
}

}  // namespace msim::audit
