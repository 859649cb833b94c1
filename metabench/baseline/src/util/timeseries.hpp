#pragma once

// Time-binned series, the backbone of every throughput plot in the paper
// (Figs. 2, 3, 6, 12, 13 are all 1-second-binned byte counts converted
// to Kbps/Mbps).

#include <cstddef>
#include <vector>

#include "util/rate.hpp"
#include "util/time.hpp"

namespace msim {

/// Accumulates (time, amount) observations into fixed-width bins.
class BinnedSeries {
 public:
  /// Bins of width `binWidth` starting at `origin`.
  explicit BinnedSeries(Duration binWidth = Duration::seconds(1),
                        TimePoint origin = TimePoint::epoch());

  void add(TimePoint t, double amount);
  void addBytes(TimePoint t, ByteSize size) { add(t, static_cast<double>(size.toBytes())); }

  [[nodiscard]] Duration binWidth() const { return binWidth_; }
  [[nodiscard]] std::size_t binCount() const { return bins_.size(); }

  /// Sum accumulated in bin `i` (0 for bins never touched).
  [[nodiscard]] double binSum(std::size_t i) const;

  /// Interpreting the bin contents as bytes, the average rate in that bin.
  [[nodiscard]] DataRate binRate(std::size_t i) const;

  /// Start time of bin `i`.
  [[nodiscard]] TimePoint binStart(std::size_t i) const;

  /// All bins as rates (bytes -> bits/sec), padded with zeros to `minBins`.
  [[nodiscard]] std::vector<double> ratesKbps(std::size_t minBins = 0) const;

  /// Mean rate over bins [first, last] inclusive (clamped to range).
  [[nodiscard]] DataRate meanRate(std::size_t first, std::size_t last) const;

  /// Total accumulated over all bins.
  [[nodiscard]] double total() const;

 private:
  [[nodiscard]] std::size_t binIndex(TimePoint t) const;

  Duration binWidth_;
  TimePoint origin_;
  std::vector<double> bins_;
};

}  // namespace msim
