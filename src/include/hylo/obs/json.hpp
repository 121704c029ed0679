#pragma once
/// \file json.hpp
/// Minimal JSON value type for the telemetry layer: an order-preserving
/// builder used to emit trace/run-log records, plus a strict recursive-
/// descent parser so tests (and tools) can round-trip what was written.
/// Deliberately small — numbers are doubles, object keys stay in insertion
/// order, no surrogate-pair escapes. Not a general-purpose JSON library.

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "hylo/common/check.hpp"
#include "hylo/common/types.hpp"

namespace hylo::obs {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), num_(v) {}
  Json(int v) : type_(Type::kNumber), num_(v) {}
  Json(std::int64_t v) : type_(Type::kNumber), num_(static_cast<double>(v)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  // --- builders ----------------------------------------------------------
  /// Array append; returns *this for chaining.
  Json& push(Json v) {
    HYLO_CHECK(type_ == Type::kArray, "push on non-array Json");
    arr_.push_back(std::move(v));
    return *this;
  }
  /// Object insert (insertion order preserved; duplicate keys overwrite).
  Json& set(const std::string& key, Json v) {
    HYLO_CHECK(type_ == Type::kObject, "set on non-object Json");
    for (auto& [k, old] : obj_) {
      if (k == key) {
        old = std::move(v);
        return *this;
      }
    }
    obj_.emplace_back(key, std::move(v));
    return *this;
  }

  // --- accessors ---------------------------------------------------------
  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool boolean() const {
    HYLO_CHECK(type_ == Type::kBool, "not a bool");
    return bool_;
  }
  double number() const {
    HYLO_CHECK(type_ == Type::kNumber, "not a number");
    return num_;
  }
  /// Numeric read that also accepts the non-finite sentinels the dumper
  /// emits ("NaN" / "Infinity" / "-Infinity" strings, and null → NaN), so
  /// health-probe values round-trip through JSONL. Throws on anything else.
  double to_double() const;
  const std::string& str() const {
    HYLO_CHECK(type_ == Type::kString, "not a string");
    return str_;
  }
  const std::vector<Json>& items() const {
    HYLO_CHECK(type_ == Type::kArray, "not an array");
    return arr_;
  }
  const std::vector<std::pair<std::string, Json>>& members() const {
    HYLO_CHECK(type_ == Type::kObject, "not an object");
    return obj_;
  }
  std::size_t size() const {
    return type_ == Type::kArray ? arr_.size() : obj_.size();
  }

  /// Object lookup; nullptr when absent (or not an object).
  const Json* find(const std::string& key) const {
    if (type_ != Type::kObject) return nullptr;
    for (const auto& [k, v] : obj_)
      if (k == key) return &v;
    return nullptr;
  }
  /// Checked object lookup.
  const Json& at(const std::string& key) const {
    const Json* v = find(key);
    HYLO_CHECK(v != nullptr, "missing JSON key '" << key << "'");
    return *v;
  }

  // --- serialization -----------------------------------------------------
  void dump(std::ostream& os) const;
  std::string dump() const;

  /// Deepest nesting of arrays and objects that parse accepts, far above
  /// the few levels the library's own records use.
  static constexpr int kMaxDepth = 512;

  /// Strict parse of a complete JSON document; throws hylo::Error with the
  /// offending offset on malformed input, nesting past kMaxDepth included.
  static Json parse(const std::string& text);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// JSON string escaping (quotes included).
std::string json_escape(const std::string& s);

}  // namespace hylo::obs
