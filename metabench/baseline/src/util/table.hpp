#pragma once

// Fixed-width table and CSV rendering for the bench harness.
//
// Every bench binary prints the same rows/series the paper reports; this
// module keeps that output consistent and diff-friendly.

#include <iosfwd>
#include <string>
#include <vector>

namespace msim {

/// Builds an aligned plain-text table column by column, row by row.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends a row; it may have fewer cells than there are headers.
  void addRow(std::vector<std::string> cells);

  /// Renders with column alignment and a header separator.
  [[nodiscard]] std::string render() const;

  /// Renders as CSV (no alignment padding).
  [[nodiscard]] std::string renderCsv() const;

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style float formatting helpers for table cells.
[[nodiscard]] std::string fmt(double v, int decimals = 1);
/// "avg/std" cell as used throughout the paper's tables.
[[nodiscard]] std::string fmtMeanStd(double mean, double std, int decimals = 1);

}  // namespace msim
