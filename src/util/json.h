// Small self-contained JSON value / parser / writer.
//
// HIOS emits schedules, timelines, and Chrome traces as JSON (the paper's
// scheduler produces JSON schedules consumed by its MPI engine). The subset
// implemented here is full JSON except \u escapes beyond ASCII passthrough.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "util/error.h"

namespace hios {

/// A JSON document node. Value-semantic; objects keep key order sorted
/// (std::map) so serialisation is deterministic.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(int v) : value_(static_cast<double>(v)) {}
  Json(int64_t v) : value_(static_cast<double>(v)) {}
  Json(std::size_t v) : value_(static_cast<double>(v)) {}
  Json(double v) : value_(v) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool as_bool() const;
  double as_number() const;
  int64_t as_int() const;
  /// Checked integer read for outside input: throws hios::Error naming
  /// `what` unless the value is a number, integral, and in [lo, hi].
  int64_t as_int_in(int64_t lo, int64_t hi, const char* what) const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Object access; creates the key when mutating, throws on missing const key.
  Json& operator[](const std::string& key);
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  /// Array append.
  void push_back(Json value);
  std::size_t size() const;

  /// Serialises compactly, or with 2-space indentation when pretty=true.
  std::string dump(bool pretty = false) const;

  /// Parses a complete JSON document; throws hios::Error on malformed input.
  static Json parse(const std::string& text);

  bool operator==(const Json& other) const { return value_ == other.value_; }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

}  // namespace hios
