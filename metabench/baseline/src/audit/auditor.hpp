#pragma once

// The event-order auditor the Simulator drives when auditing is enabled.
//
// Opt-in by design: the hook costs one pointer test per dispatched event
// when disabled, and one FNV chain step (plus an optional trail append) when
// enabled. The auditor sees exactly what the determinism contract promises
// to hold fixed — dispatch time, the event's *audit stamp* (a logical
// identity the scheduler assigns: a local-only sequence for ordinary
// schedules, the canonical (src, srcSeq) fold for events injected from
// another PDES partition), and any kind tags layers choose to note — never
// host pointers or wall-clock values, so its digest is comparable across
// thread counts and processes. It also never sees how the queue *stored* an
// event: the digest covers dispatch order only, so queue-internal
// reorganisation (timer-wheel lanes, cascades, overflow promotion — see
// DESIGN.md §10) is invisible to it, and so is the PDES engine's barrier
// structure (slot indices and schedule-sequence counters shift when
// injections land at different barriers, the stamp does not — see
// DESIGN.md §11's window-coalescing argument).

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "audit/digest.hpp"

namespace msim::audit {

class EventAuditor {
 public:
  explicit EventAuditor(bool recordTrail = false) : recordTrail_{recordTrail} {}

  /// Chains one dispatched event: absolute time plus the audit stamp that
  /// is the event's logical identity (deterministic given the same local
  /// schedule order — storage slots and shared sequence counters are
  /// deliberately NOT folded; see the header comment).
  void onEvent(std::int64_t timeNs, std::uint64_t stamp) {
    chain_.mix(static_cast<std::uint64_t>(timeNs));
    chain_.mix(stamp);
    ++events_;
    // detlint:allow(hotpath-alloc) opt-in divergence-debugging trail — off in
    // every gated run; steady-state auditing is digest-only and alloc-free.
    if (recordTrail_) trail_.push_back(chain_.value());
  }

  /// Folds an application-level tag into the chain at the current position —
  /// layers use this to bind message kinds or payload identities to the
  /// event stream (an interned MsgKind should be noted by *text*, not by
  /// pointer, so digests stay process-independent).
  void note(std::uint64_t tag) { chain_.mix(tag); }
  void note(std::string_view tag) { chain_.mix(tag); }

  [[nodiscard]] std::uint64_t digest() const { return chain_.value(); }
  [[nodiscard]] std::uint64_t eventCount() const { return events_; }
  [[nodiscard]] bool recordsTrail() const { return recordTrail_; }
  [[nodiscard]] const Trail& trail() const { return trail_; }

 private:
  Digest chain_;
  std::uint64_t events_{0};
  bool recordTrail_;
  Trail trail_;
};

/// Everything one audited run exposes for cross-run comparison.
struct RunFingerprint {
  std::uint64_t digest{0};  ///< chain digest combined with RNG draw counters
  std::uint64_t events{0};  ///< dispatched events covered by the chain
  Trail trail;              ///< per-event chain values (empty unless recorded)

  friend bool operator==(const RunFingerprint& a, const RunFingerprint& b) {
    return a.digest == b.digest && a.events == b.events;
  }
};

}  // namespace msim::audit
