#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/assert.hpp"

namespace nova {

void Table::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  if (!header_.empty()) {
    NOVA_EXPECTS(row.size() == header_.size());
  }
  rows_.push_back(std::move(row));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::to_ascii() const {
  // Column widths from header and all rows.
  std::vector<std::size_t> width(header_.size(), 0);
  auto widen = [&width](const std::vector<std::string>& row) {
    if (row.size() > width.size()) width.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      width[i] = std::max(width[i], row[i].size());
    }
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  std::ostringstream out;
  if (!title_.empty()) out << "== " << title_ << " ==\n";
  auto emit = [&out, &width](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out << (i == 0 ? "| " : " | ");
      out << row[i];
      out << std::string(width[i] - row[i].size(), ' ');
    }
    out << " |\n";
  };
  std::size_t total = 4;
  for (const auto w : width) total += w + 3;
  if (!header_.empty()) {
    emit(header_);
    out << std::string(total > 4 ? total - 4 : 0, '-') << "\n";
  }
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string Table::to_csv() const {
  std::ostringstream out;
  auto emit = [&out](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) out << ",";
      // RFC 4180: a cell holding a separator, quote or line break is
      // quoted, and each quote inside it doubled.
      const std::string& cell = row[i];
      if (cell.find_first_of(",\"\n") == std::string::npos) {
        out << cell;
        continue;
      }
      out << '"';
      for (const char c : cell) {
        if (c == '"') out << '"';
        out << c;
      }
      out << '"';
    }
    out << "\n";
  };
  if (!header_.empty()) emit(header_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

void Table::print() const { std::fputs(to_ascii().c_str(), stdout); }

}  // namespace nova
