// Minimal recursive-descent JSON parser and writer (RFC 8259 subset, no
// external deps).
//
// Exists for the offline tooling side of telemetry (src/telemetry parses
// the tracer's and the audit log's JSONL dumps back) and for the declarative
// scenario specs (`src/scenario` parses, validates and re-emits
// ScenarioSpec documents). It is NOT a general-purpose library: numbers are
// held as doubles, strings support the standard escapes ("\uXXXX" is decoded
// as UTF-8 for the BMP and replaced with '?' outside it), and inputs nested
// deeper than kMaxDepth are rejected rather than recursed into.
//
// Writing: Value exposes a small builder API (factories + Set/PushBack) and
// Write() serializes with stable key order (objects are sorted maps), so
// parse → Write → parse round-trips to an equal Value.

#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dcc {
namespace json {

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Value() = default;

  // --- builders --------------------------------------------------------------
  static Value OfBool(bool b);
  static Value OfNumber(double n);
  static Value OfString(std::string s);
  static Value MakeArray();
  static Value MakeObject();

  // Appends to an array value (converts a null value into an array first;
  // any other type is overwritten with a fresh array).
  void PushBack(Value v);
  // Sets an object member (converts a null value into an object first; any
  // other type is overwritten with a fresh object).
  void Set(const std::string& key, Value v);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double AsNumber(double fallback = 0) const {
    return is_number() ? number_ : fallback;
  }
  const std::string& AsString() const { return string_; }
  const std::vector<Value>& AsArray() const { return array_; }
  const std::map<std::string, Value>& AsObject() const { return object_; }

  // Object member lookup; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;
  // In-place edit access: the member `key`, added as null when absent (a
  // null value becomes an object first), and the array element `i`. nullptr
  // when the value has another type or `i` is out of range.
  Value* Member(const std::string& key);
  Value* Element(size_t i);
  // Erases the object member `key`, if any.
  void Remove(const std::string& key);
  // Convenience accessors over Find.
  double Number(const std::string& key, double fallback = 0) const;
  std::string String(const std::string& key,
                     const std::string& fallback = "") const;
  // Object member `key` as an `Int`: `fallback` when absent, false when the
  // member is not a whole number that `Int` holds.
  template <typename Int>
  bool Integer(const std::string& key, Int fallback, Int* out) const;

 private:
  friend class Parser;
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

template <typename Int>
bool Value::Integer(const std::string& key, Int fallback, Int* out) const {
  const Value* v = Find(key);
  if (v == nullptr) {
    *out = fallback;
    return true;
  }
  // max() + 1 is a power of two, so both bounds are exact doubles.
  const double low = static_cast<double>(std::numeric_limits<Int>::min());
  const double high = static_cast<double>(std::numeric_limits<Int>::max()) + 1.0;
  const double n = v->AsNumber(0.5);  // A non-number reads as not whole.
  if (!(n >= low && n < high) || n != std::trunc(n)) {
    return false;
  }
  *out = static_cast<Int>(n);
  return true;
}

inline constexpr int kMaxDepth = 64;

// Parses exactly one JSON document (trailing whitespace allowed, anything
// else after it is an error). Returns false and fills `error` (with a byte
// offset) on malformed input.
bool Parse(std::string_view text, Value* out, std::string* error = nullptr);

// Serializes `value`. `indent < 0` emits the compact single-line form;
// `indent >= 0` pretty-prints with that many spaces per nesting level.
// Object keys come out in sorted (std::map) order, so output is stable and
// parse → Write → parse yields an equal Value. Numbers use the shortest
// representation that round-trips a double; integral values in the exact
// int64 range print without a decimal point.
std::string Write(const Value& value, int indent = -1);

}  // namespace json
}  // namespace dcc

#endif  // SRC_COMMON_JSON_H_
