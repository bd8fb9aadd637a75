// Minimal recursive-descent JSON reader, plus the one string escaper and
// number formatter every JSON exporter in the tree writes with.
//
// The reader exists so tools/trace_lint and the trace round-trip tests can
// validate exported Chrome trace-event files without an external
// dependency. It reads the full JSON grammar (objects, arrays, strings with
// escapes, numbers, bool, null); numbers are held as double, which is exact
// for every id the tracer emits (< 2^53).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ys::json {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;
};

/// Parse a complete JSON document. std::nullopt on any syntax error or
/// trailing garbage.
std::optional<Value> parse(std::string_view text);

/// `s` escaped for the inside of a JSON string literal (no quotes added):
/// \" \\ \n \r \t, and \u00XX for every other byte below 0x20.
std::string escape(std::string_view s);

/// `v` as a JSON number: integral values below 1e15 without a fraction,
/// others as %.17g (round-trips); NaN and infinities as null.
std::string number(double v);

}  // namespace ys::json
