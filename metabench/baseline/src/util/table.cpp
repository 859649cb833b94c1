#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace msim {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_{std::move(headers)} {}

void TablePrinter::addRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::render() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emitRow = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      os << cell << std::string(widths[c] - std::min(widths[c], cell.size()) + 2, ' ');
    }
    os << '\n';
  };
  emitRow(headers_);
  std::size_t lineWidth = 0;
  for (const std::size_t w : widths) lineWidth += w + 2;
  os << std::string(lineWidth, '-') << '\n';
  for (const auto& row : rows_) emitRow(row);
  return os.str();
}

std::string TablePrinter::renderCsv() const {
  std::ostringstream os;
  auto emitRow = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << ',';
      os << row[c];
    }
    os << '\n';
  };
  emitRow(headers_);
  for (const auto& row : rows_) emitRow(row);
  return os.str();
}

void TablePrinter::print(std::ostream& os) const { os << render(); }

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string fmtMeanStd(double mean, double std, int decimals) {
  return fmt(mean, decimals) + "/" + fmt(std, decimals);
}

}  // namespace msim
