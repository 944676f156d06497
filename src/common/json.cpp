#include "common/json.hpp"

#include <cstdio>

#include "common/table.hpp"

namespace nova::json {

namespace {

/// `text` as a JSON string literal.
std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (byte < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(byte));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

}  // namespace

Object& Object::add(std::string_view key, std::string value) {
  members_.push_back({quoted(key), std::move(value), {}});
  return *this;
}

Object& Object::str(std::string_view key, std::string_view value) {
  return add(key, quoted(value));
}

Object& Object::num(std::string_view key, double value, int decimals) {
  return add(key, Table::num(value, decimals));
}

Object& Object::flag(std::string_view key, bool value) {
  return add(key, value ? "true" : "false");
}

Object& Object::obj(std::string_view key, const Object& value) {
  return add(key, value.line());
}

Object& Object::list(std::string_view key, const std::vector<Object>& items) {
  add(key, "[");
  auto& member = members_.back();
  for (const auto& item : items) {
    if (!member.items.empty()) member.value += ", ";
    member.items.push_back(item.line());
    member.value += member.items.back();
  }
  member.value += ']';
  return *this;
}

std::string Object::line() const {
  std::string out = "{";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i != 0) out += ", ";
    out += members_[i].key + ": " + members_[i].value;
  }
  return out + "}";
}

std::string Object::document() const {
  std::string out = "{";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const auto& member = members_[i];
    out += (i == 0 ? "\n  " : ",\n  ") + member.key + ": ";
    if (member.items.empty()) {
      out += member.value;
      continue;
    }
    for (std::size_t j = 0; j < member.items.size(); ++j) {
      out += (j == 0 ? "[\n    " : ",\n    ") + member.items[j];
    }
    out += "\n  ]";
  }
  return out + "\n}\n";
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), out) == text.size();
  const bool closed = std::fclose(out) == 0;
  return wrote && closed;
}

}  // namespace nova::json
