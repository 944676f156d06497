// Console table / CSV rendering used by every bench binary to print the
// paper's tables and figure series in a uniform, diff-friendly format.
#pragma once

#include <string>
#include <vector>

namespace nova {

/// Accumulates rows of strings and renders them as an aligned ASCII table
/// (for the console) or CSV (for plotting the figure series).
class Table {
 public:
  explicit Table(std::string title = {}) : title_(std::move(title)) {}

  /// Sets the header row. Column count of subsequent rows must match.
  void set_header(std::vector<std::string> header);

  /// Appends a row of already-formatted cells.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with `precision` significant decimals.
  static std::string num(double v, int precision = 3);

  [[nodiscard]] std::string to_ascii() const;
  /// Comma-separated, cells quoted as RFC 4180 requires.
  [[nodiscard]] std::string to_csv() const;

  /// Renders to stdout (ASCII form).
  void print() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace nova
