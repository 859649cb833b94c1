#include "util/timeseries.hpp"

#include <algorithm>
#include <stdexcept>

namespace msim {

BinnedSeries::BinnedSeries(Duration binWidth, TimePoint origin)
    : binWidth_{binWidth}, origin_{origin} {
  if (binWidth_ <= Duration::zero()) {
    throw std::invalid_argument("BinnedSeries: bin width must be positive");
  }
}

std::size_t BinnedSeries::binIndex(TimePoint t) const {
  const std::int64_t rel = (t - origin_).toNanos();
  if (rel < 0) return 0;
  return static_cast<std::size_t>(rel / binWidth_.toNanos());
}

void BinnedSeries::add(TimePoint t, double amount) {
  const std::size_t idx = binIndex(t);
  if (idx >= bins_.size()) bins_.resize(idx + 1, 0.0);
  bins_[idx] += amount;
}

double BinnedSeries::binSum(std::size_t i) const {
  return i < bins_.size() ? bins_[i] : 0.0;
}

DataRate BinnedSeries::binRate(std::size_t i) const {
  return rateOf(ByteSize::bytes(static_cast<std::int64_t>(binSum(i))), binWidth_);
}

TimePoint BinnedSeries::binStart(std::size_t i) const {
  return origin_ + binWidth_ * static_cast<double>(i);
}

std::vector<double> BinnedSeries::ratesKbps(std::size_t minBins) const {
  const std::size_t n = std::max(bins_.size(), minBins);
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    out[i] = binRate(i).toKbps();
  }
  return out;
}

DataRate BinnedSeries::meanRate(std::size_t first, std::size_t last) const {
  if (bins_.empty() || first > last) return DataRate::zero();
  last = std::min(last, bins_.size() - 1);
  first = std::min(first, last);
  double sum = 0.0;
  for (std::size_t i = first; i <= last; ++i) sum += bins_[i];
  const auto window = binWidth_ * static_cast<double>(last - first + 1);
  return rateOf(ByteSize::bytes(static_cast<std::int64_t>(sum)), window);
}

double BinnedSeries::total() const {
  double sum = 0.0;
  for (const double b : bins_) sum += b;
  return sum;
}

}  // namespace msim
