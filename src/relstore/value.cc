#include "relstore/value.h"

#include <algorithm>

#include "common/str_util.h"

namespace orpheus::rel {

bool Value::Equals(const Value& other) const {
  if (is_null() || other.is_null()) return false;
  if (IsNumeric() && other.IsNumeric()) {
    if (type_ == DataType::kInt64 && other.type_ == DataType::kInt64) {
      return int_ == other.int_;
    }
    return AsDouble() == other.AsDouble();
  }
  if (type_ != other.type_) return false;
  switch (type_) {
    case DataType::kBool:
      return int_ == other.int_;
    case DataType::kString:
      return string_ == other.string_;
    case DataType::kIntArray:
      return *array_ == *other.array_;
    default:
      return false;
  }
}

int Value::Compare(const Value& other) const {
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  if (IsNumeric() && other.IsNumeric()) {
    if (type_ == DataType::kInt64 && other.type_ == DataType::kInt64) {
      return int_ < other.int_ ? -1 : (int_ > other.int_ ? 1 : 0);
    }
    double a = AsDouble();
    double b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (type_ == DataType::kBool && other.type_ == DataType::kBool) {
    return int_ < other.int_ ? -1 : (int_ > other.int_ ? 1 : 0);
  }
  if (type_ == DataType::kString && other.type_ == DataType::kString) {
    int cmp = string_.compare(other.string_);
    return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }
  if (type_ == DataType::kIntArray && other.type_ == DataType::kIntArray) {
    const IntArray& a = *array_;
    const IntArray& b = *other.array_;
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
    }
    if (a.size() == b.size()) return 0;
    return a.size() < b.size() ? -1 : 1;
  }
  // Incomparable types: order by type id so sorting is still total.
  return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
}

std::string Value::ToString() const {
  switch (type_) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt64:
      return std::to_string(int_);
    case DataType::kDouble:
      return StrFormat("%g", double_);
    case DataType::kBool:
      return int_ ? "true" : "false";
    case DataType::kString:
      return string_;
    case DataType::kIntArray: {
      std::string out = "{";
      for (size_t i = 0; i < array_->size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string((*array_)[i]);
      }
      out += "}";
      return out;
    }
  }
  return "?";
}

}  // namespace orpheus::rel
