#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace olp {

void TextTable::set_header(std::vector<std::string> header) {
  OLP_CHECK(!header.empty(), "table header must have at least one column");
  OLP_CHECK(rows_.empty(), "set_header must precede add_row");
  columns_ = header.size();
  header_ = std::move(header);
}

void TextTable::add_row(std::vector<std::string> row) {
  OLP_CHECK(!row.empty(), "table row must have at least one cell");
  if (columns_ == 0) {
    columns_ = row.size();
  } else {
    OLP_CHECK(row.size() == columns_, "table row has wrong column count");
  }
  rows_.push_back(Row{std::move(row), false});
}

void TextTable::add_rule() { rows_.push_back(Row{{}, true}); }

std::string TextTable::render() const {
  std::vector<std::size_t> width(columns_, 0);
  auto widen = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      width[c] = std::max(width[c], cells[c].size());
    }
  };
  if (!header_.empty()) widen(header_);
  for (const Row& r : rows_) {
    if (!r.rule) widen(r.cells);
  }

  std::ostringstream out;
  auto rule_line = [&] {
    out << '+';
    for (std::size_t c = 0; c < columns_; ++c) {
      out << std::string(width[c] + 2, '-') << '+';
    }
    out << '\n';
  };
  auto data_line = [&](const std::vector<std::string>& cells) {
    out << '|';
    for (std::size_t c = 0; c < columns_; ++c) {
      const std::string& cell = cells[c];
      out << ' ' << cell << std::string(width[c] - cell.size() + 1, ' ') << '|';
    }
    out << '\n';
  };

  if (!title_.empty()) out << title_ << '\n';
  rule_line();
  if (!header_.empty()) {
    data_line(header_);
    rule_line();
  }
  for (const Row& r : rows_) {
    if (r.rule) {
      rule_line();
    } else {
      data_line(r.cells);
    }
  }
  if (rows_.empty() || !rows_.back().rule) rule_line();
  return out.str();
}

std::ostream& operator<<(std::ostream& os, const TextTable& t) {
  return os << t.render();
}

std::string fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

std::string pct(double fraction, int decimals) {
  return fixed(fraction * 100.0, decimals) + "%";
}

}  // namespace olp
