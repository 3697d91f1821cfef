// Plain-text table rendering for the bench harnesses and examples: every
// bench prints the paper's rows next to the measured ones.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace vodcache::analysis {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  // Convenience: formats doubles with `precision` digits after the point.
  static std::string num(double value, int precision = 2);

  // Renders with aligned columns.
  void print(std::ostream& out) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace vodcache::analysis
