#pragma once

// One process-wide worker budget shared by every parallel harness.
//
// Two layers can want workers at once: a seed sweep fans runs across
// threads (core/seedsweep.hpp), and a PDES engine inside each run fans
// partitions across threads (pdes/pdes.hpp). Both draw from this ledger so
// the process never oversubscribes MSIM_THREADS: a nested engine asks for
// extra workers and receives whatever the outer sweep left over — possibly
// none, in which case it simply runs on its caller's thread. The grant
// only ever shapes wall clock, never output: every consumer is
// bit-deterministic for any worker count, which is what makes a
// best-effort, non-blocking ledger safe.

#include <atomic>

namespace msim {

class ThreadBudget {
 public:
  /// The process-wide ledger. Capacity is MSIM_THREADS when set (minimum
  /// 1), otherwise the hardware concurrency; read once at first use.
  static ThreadBudget& process();

  explicit ThreadBudget(unsigned capacity)
      : capacity_{capacity == 0 ? 1 : capacity} {}

  ThreadBudget(const ThreadBudget&) = delete;
  ThreadBudget& operator=(const ThreadBudget&) = delete;

  /// Total workers the process may run, counting the main thread.
  [[nodiscard]] unsigned capacity() const { return capacity_; }

  /// Extra workers currently granted (beyond the calling threads).
  [[nodiscard]] unsigned extraInUse() const {
    return extraInUse_.load(std::memory_order_relaxed);
  }

  /// Grants up to `want` extra workers beyond the calling thread, never
  /// blocking: the grant is min(want, capacity - 1 - extraInUse), floored
  /// at zero. Pair every acquire with a release (or use Lease).
  unsigned acquire(unsigned want) {
    unsigned cur = extraInUse_.load(std::memory_order_relaxed);
    for (;;) {
      const unsigned avail = capacity_ - 1 > cur ? capacity_ - 1 - cur : 0;
      const unsigned grant = want < avail ? want : avail;
      if (grant == 0) return 0;
      if (extraInUse_.compare_exchange_weak(cur, cur + grant,
                                            std::memory_order_relaxed)) {
        return grant;
      }
    }
  }

  void release(unsigned granted) {
    if (granted != 0) {
      extraInUse_.fetch_sub(granted, std::memory_order_relaxed);
    }
  }

  /// RAII grant of extra workers.
  class Lease {
   public:
    Lease(ThreadBudget& budget, unsigned want)
        : budget_{&budget}, granted_{budget.acquire(want)} {}
    ~Lease() {
      if (budget_ != nullptr) budget_->release(granted_);
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    /// Extra workers granted (may be zero).
    [[nodiscard]] unsigned granted() const { return granted_; }
    /// Total workers to run with, counting the calling thread.
    [[nodiscard]] unsigned workers() const { return granted_ + 1; }

   private:
    ThreadBudget* budget_;
    unsigned granted_;
  };

 private:
  unsigned capacity_;
  std::atomic<unsigned> extraInUse_{0};
};

}  // namespace msim
