// The JSON writer behind every machine-readable file the tree writes (the
// BENCH_*.json series and nova_lint --json), and the checked write that puts
// a document on disk. Its layout keeps two runs diffable row by row: one
// line per top-level member and per element of a top-level array, anything
// nested deeper on one line.
#pragma once

#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace nova::json {

/// A JSON object built member by member, in insertion order. Keys and
/// string values are escaped: quotes, backslashes, \n and \t get their
/// short escapes, other control bytes become \u00XX.
class Object {
 public:
  Object& str(std::string_view key, std::string_view value);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Object& num(std::string_view key, T value) {
    return add(key, std::to_string(value));
  }
  /// `value` with `decimals` digits after the point, as Table::num prints.
  Object& num(std::string_view key, double value, int decimals);
  Object& flag(std::string_view key, bool value);
  Object& obj(std::string_view key, const Object& value);
  Object& list(std::string_view key, const std::vector<Object>& items);

  /// {"key": value, ...} on one line.
  [[nodiscard]] std::string line() const;
  /// The newline-terminated document: one line per member and per element
  /// of a non-empty array member.
  [[nodiscard]] std::string document() const;

 private:
  struct Member {
    std::string key;    // quoted
    std::string value;  // on one line
    std::vector<std::string> items;  // a non-empty array's elements
  };

  Object& add(std::string_view key, std::string value);

  std::vector<Member> members_;
};

/// Writes `text` to `path`. False when the file cannot be opened, a write
/// fails or closing it does: a full device shows only when the buffered
/// bytes are flushed at close.
[[nodiscard]] bool write_file(const std::string& path, const std::string& text);

}  // namespace nova::json
