#pragma once

// Streaming statistics used by every measurement in the harness.
//
// The paper reports "average / standard deviation" cells (Tables 2-4) and
// 95% confidence-interval bands (Figs. 7-9, 11); RunningStats provides both.

#include <cstddef>
#include <vector>

namespace msim {

/// Welford-style streaming mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void clear();

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Half-width of the 95% confidence interval for the mean
  /// (normal approximation with a small-sample t correction).
  [[nodiscard]] double ci95HalfWidth() const;

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double sum_{0.0};
  double min_{0.0};
  double max_{0.0};
};

/// Pearson correlation of two equal-length series; 0 if degenerate.
[[nodiscard]] double pearsonCorrelation(const std::vector<double>& a,
                                        const std::vector<double>& b);

/// Least-squares slope/intercept/R^2 of y against x.
struct LinearFit {
  double slope{0.0};
  double intercept{0.0};
  double r2{0.0};
};
[[nodiscard]] LinearFit linearFit(const std::vector<double>& x,
                                  const std::vector<double>& y);

}  // namespace msim
