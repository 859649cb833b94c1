#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace msim {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

void RunningStats::clear() { *this = RunningStats{}; }

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::ci95HalfWidth() const {
  if (n_ < 2) return 0.0;
  // Two-sided 97.5% t quantiles for small n; 1.96 asymptotically.
  static constexpr double kT[] = {0,     0,     12.71, 4.303, 3.182, 2.776,
                                  2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
                                  2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
                                  2.110, 2.101, 2.093, 2.086};
  const std::size_t idx = n_ < 21 ? n_ : 0;
  const double t = idx >= 2 ? kT[idx] : 1.96;
  return t * stddev() / std::sqrt(static_cast<double>(n_));
}

double pearsonCorrelation(const std::vector<double>& a, const std::vector<double>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  if (n < 2) return 0.0;
  double meanA = 0.0;
  double meanB = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    meanA += a[i];
    meanB += b[i];
  }
  meanA /= static_cast<double>(n);
  meanB /= static_cast<double>(n);
  double cov = 0.0;
  double varA = 0.0;
  double varB = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double da = a[i] - meanA;
    const double db = b[i] - meanB;
    cov += da * db;
    varA += da * da;
    varB += db * db;
  }
  if (varA <= 0.0 || varB <= 0.0) return 0.0;
  return cov / std::sqrt(varA * varB);
}

LinearFit linearFit(const std::vector<double>& x, const std::vector<double>& y) {
  LinearFit fit;
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return fit;
  double meanX = 0.0;
  double meanY = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    meanX += x[i];
    meanY += y[i];
  }
  meanX /= static_cast<double>(n);
  meanY /= static_cast<double>(n);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - meanX;
    const double dy = y[i] - meanY;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = meanY - fit.slope * meanX;
  fit.r2 = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

}  // namespace msim
