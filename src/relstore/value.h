// Value: a single typed SQL value crossing the expression-evaluation
// boundary. Bulk storage is columnar (see column.h); Values are only
// materialized for predicates, projections of computed expressions, and
// literals, so the representation favours clarity over compactness.

#ifndef ORPHEUS_RELSTORE_VALUE_H_
#define ORPHEUS_RELSTORE_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "relstore/types.h"

namespace orpheus::rel {

class Value {
 public:
  // NULL value.
  Value() : type_(DataType::kNull) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value out;
    out.type_ = DataType::kInt64;
    out.int_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.type_ = DataType::kDouble;
    out.double_ = v;
    return out;
  }
  static Value Bool(bool v) {
    Value out;
    out.type_ = DataType::kBool;
    out.int_ = v ? 1 : 0;
    return out;
  }
  static Value String(std::string v) {
    Value out;
    out.type_ = DataType::kString;
    out.string_ = std::move(v);
    return out;
  }
  static Value Array(IntArray v) {
    Value out;
    out.type_ = DataType::kIntArray;
    out.array_ = std::make_shared<IntArray>(std::move(v));
    return out;
  }
  static Value ArrayPtr(std::shared_ptr<IntArray> v) {
    Value out;
    out.type_ = DataType::kIntArray;
    out.array_ = std::move(v);
    return out;
  }

  DataType type() const { return type_; }
  bool is_null() const { return type_ == DataType::kNull; }

  // Typed accessors; callers must check type() first (asserted in
  // debug builds via the column/eval layers).
  int64_t AsInt() const { return int_; }
  double AsDouble() const {
    return type_ == DataType::kInt64 ? static_cast<double>(int_) : double_;
  }
  bool AsBool() const { return int_ != 0; }
  const std::string& AsString() const { return string_; }
  const IntArray& AsArray() const { return *array_; }
  const std::shared_ptr<IntArray>& array_ptr() const { return array_; }

  // True if numeric (int or double); such values compare cross-type.
  bool IsNumeric() const {
    return type_ == DataType::kInt64 || type_ == DataType::kDouble;
  }

  // SQL-ish equality; numeric values compare by value across
  // int/double. NULL equals nothing (including NULL).
  bool Equals(const Value& other) const;

  // Three-way comparison for ORDER BY and merge joins: -1/0/+1.
  // NULLs sort first. Arrays compare lexicographically.
  int Compare(const Value& other) const;

  // Rendering for result printing and CSV export.
  std::string ToString() const;

 private:
  DataType type_;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::shared_ptr<IntArray> array_;
};

}  // namespace orpheus::rel

#endif  // ORPHEUS_RELSTORE_VALUE_H_
