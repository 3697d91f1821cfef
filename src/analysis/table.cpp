#include "analysis/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"

namespace vodcache::analysis {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  VODCACHE_EXPECTS(!header_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  VODCACHE_EXPECTS(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "" : "  ") << std::setw(static_cast<int>(widths[c]))
          << row[c];
    }
    out << '\n';
  };
  print_row(header_);
  std::size_t total = header_.size() - 1;
  for (const std::size_t w : widths) total += w + 1;
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

}  // namespace vodcache::analysis
