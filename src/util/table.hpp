#pragma once
// ASCII table rendering for the benchmark harnesses.
//
// bench_paper regenerates the paper's tables; TextTable produces the
// aligned, boxed output it prints.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace olp {

/// A simple column-aligned text table with optional title and rule rows.
class TextTable {
 public:
  explicit TextTable(std::string title = "") : title_(std::move(title)) {}

  /// Sets the header row (defines the column count).
  void set_header(std::vector<std::string> header);

  /// Appends a data row; must match the header column count when a header
  /// was set, otherwise defines the column count.
  void add_row(std::vector<std::string> row);

  /// Appends a horizontal rule between the previous and next data rows. A
  /// rule after the last row is the table's closing rule, drawn once.
  void add_rule();

  std::size_t row_count() const { return rows_.size(); }

  /// Renders the table to a string (trailing newline included).
  std::string render() const;

  friend std::ostream& operator<<(std::ostream& os, const TextTable& t);

 private:
  struct Row {
    std::vector<std::string> cells;
    bool rule = false;
  };
  std::string title_;
  std::vector<std::string> header_;
  std::vector<Row> rows_;
  std::size_t columns_ = 0;
};

/// Formats a double with fixed decimals, e.g. fixed(3.14159, 2) == "3.14".
std::string fixed(double value, int decimals);

/// Formats a fraction as a percentage string, e.g. pct(0.067) == "6.7%".
std::string pct(double fraction, int decimals = 1);

}  // namespace olp
