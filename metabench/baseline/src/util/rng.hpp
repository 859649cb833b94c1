#pragma once

// Deterministic random number generation.
//
// Every stochastic decision in the simulator (loss draws, jitter, processing
// time samples, motion) goes through one Rng owned by the Simulator, seeded
// from the experiment config. Reproducing the paper's "averaged over more
// than 20 experiments" means running 20+ seeds, not 20 wall-clock repeats.

#include <cstdint>
#include <random>

#include "util/time.hpp"

namespace msim {

/// A seeded pseudo-random source with distribution helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_{seed} {}

  void reseed(std::uint64_t seed) {
    engine_.seed(seed);
    draws_ = 0;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    ++draws_;
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] std::int64_t uniformInt(std::int64_t lo, std::int64_t hi) {
    ++draws_;
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }

  /// True with probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    ++draws_;
    return std::bernoulli_distribution{p}(engine_);
  }

  /// Normal sample with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) {
    if (stddev <= 0.0) return mean;
    ++draws_;
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }

  /// Normal sample truncated below at `floor`.
  [[nodiscard]] double normalAtLeast(double mean, double stddev, double floor) {
    const double v = normal(mean, stddev);
    return v < floor ? floor : v;
  }

  /// Exponential sample with the given mean (> 0).
  [[nodiscard]] double exponential(double mean) {
    ++draws_;
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }

  /// Normally-jittered duration, truncated at zero.
  [[nodiscard]] Duration jitteredMillis(double meanMs, double stddevMs) {
    return Duration::millis(normalAtLeast(meanMs, stddevMs, 0.0));
  }

  /// Helper-level draws performed since construction/reseed. The determinism
  /// auditor folds this counter into the run fingerprint, so two runs that
  /// consumed a different number of samples diverge even when their event
  /// streams happen to match.
  [[nodiscard]] std::uint64_t draws() const { return draws_; }

  /// Access for std distributions not covered by the helpers. Draws made
  /// directly on the engine bypass the draws() counter.
  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t draws_{0};
};

}  // namespace msim
