#include "relstore/column.h"

#include <algorithm>
#include <cassert>

namespace orpheus::rel {

Value Column::Get(size_t row) const {
  assert(row < size_);
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value::Int(ints_[row]);
    case DataType::kBool:
      return Value::Bool(ints_[row] != 0);
    case DataType::kDouble:
      return Value::Double(doubles_[row]);
    case DataType::kString:
      return Value::String(strings_[row]);
    case DataType::kIntArray:
      return Value::Array(arrays_[row]);
    case DataType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

void Column::EnsureBitmap() {
  if (null_bitmap_.empty()) null_bitmap_.assign(size_, false);
}

void Column::SetNull(size_t row) {
  EnsureBitmap();
  if (row >= null_bitmap_.size()) null_bitmap_.resize(size_, false);
  null_bitmap_[row] = true;
}

void Column::Append(const Value& value) {
  // Slot is appended first so SetNull sees the right size.
  switch (type_) {
    case DataType::kInt64:
    case DataType::kBool:
      ints_.push_back(value.is_null() ? 0 : value.AsInt());
      break;
    case DataType::kDouble:
      doubles_.push_back(value.is_null() ? 0.0 : value.AsDouble());
      break;
    case DataType::kString:
      strings_.push_back(value.is_null() ? std::string() : value.AsString());
      break;
    case DataType::kIntArray:
      arrays_.push_back(value.is_null() ? IntArray() : value.AsArray());
      break;
    case DataType::kNull:
      break;
  }
  ++size_;
  if (!null_bitmap_.empty()) null_bitmap_.push_back(value.is_null());
  if (value.is_null() && null_bitmap_.empty()) {
    EnsureBitmap();
    null_bitmap_.back() = true;
  }
}

void Column::AppendFrom(const Column& src, size_t row) {
  assert(src.type_ == type_);
  switch (type_) {
    case DataType::kInt64:
    case DataType::kBool:
      ints_.push_back(src.ints_[row]);
      break;
    case DataType::kDouble:
      doubles_.push_back(src.doubles_[row]);
      break;
    case DataType::kString:
      strings_.push_back(src.strings_[row]);
      break;
    case DataType::kIntArray:
      arrays_.push_back(src.arrays_[row]);
      break;
    case DataType::kNull:
      break;
  }
  ++size_;
  bool src_null = src.IsNull(row);
  if (!null_bitmap_.empty()) {
    null_bitmap_.push_back(src_null);
  } else if (src_null) {
    EnsureBitmap();
    null_bitmap_.back() = true;
  }
}

namespace {

// Makes room for `n` more elements, at least doubling the capacity when
// it must grow, so a run of k-row appends costs amortized O(k) rather
// than a copy of the whole column each time.
template <typename T>
void GrowFor(std::vector<T>& vec, size_t n) {
  const size_t need = vec.size() + n;
  if (need > vec.capacity()) vec.reserve(std::max(need, 2 * vec.capacity()));
}

}  // namespace

void Column::Gather(const Column& src, const std::vector<uint32_t>& rows) {
  assert(src.type_ == type_);
  switch (type_) {
    case DataType::kInt64:
    case DataType::kBool:
      GrowFor(ints_, rows.size());
      for (uint32_t r : rows) ints_.push_back(src.ints_[r]);
      break;
    case DataType::kDouble:
      GrowFor(doubles_, rows.size());
      for (uint32_t r : rows) doubles_.push_back(src.doubles_[r]);
      break;
    case DataType::kString:
      GrowFor(strings_, rows.size());
      for (uint32_t r : rows) strings_.push_back(src.strings_[r]);
      break;
    case DataType::kIntArray:
      GrowFor(arrays_, rows.size());
      for (uint32_t r : rows) arrays_.push_back(src.arrays_[r]);
      break;
    case DataType::kNull:
      break;
  }
  size_ += rows.size();
  if (!src.null_bitmap_.empty() || !null_bitmap_.empty()) {
    EnsureBitmap();
    null_bitmap_.resize(size_ - rows.size(), false);
    for (uint32_t r : rows) null_bitmap_.push_back(src.IsNull(r));
  }
}

void Column::Set(size_t row, const Value& value) {
  assert(row < size_);
  if (value.is_null()) {
    SetNull(row);
    return;
  }
  if (!null_bitmap_.empty()) null_bitmap_[row] = false;
  switch (type_) {
    case DataType::kInt64:
    case DataType::kBool:
      ints_[row] = value.AsInt();
      break;
    case DataType::kDouble:
      doubles_[row] = value.AsDouble();
      break;
    case DataType::kString:
      strings_[row] = value.AsString();
      break;
    case DataType::kIntArray:
      arrays_[row] = value.AsArray();
      break;
    case DataType::kNull:
      break;
  }
}

namespace {

template <typename T>
void FilterVector(std::vector<T>& vec, const std::vector<bool>& keep) {
  if (vec.empty()) return;
  size_t out = 0;
  for (size_t i = 0; i < vec.size(); ++i) {
    if (keep[i]) {
      if (out != i) vec[out] = std::move(vec[i]);
      ++out;
    }
  }
  vec.resize(out);
}

}  // namespace

void Column::Filter(const std::vector<bool>& keep) {
  assert(keep.size() == size_);
  FilterVector(ints_, keep);
  FilterVector(doubles_, keep);
  FilterVector(strings_, keep);
  FilterVector(arrays_, keep);
  if (!null_bitmap_.empty()) {
    std::vector<bool> bitmap;
    bitmap.reserve(size_);
    for (size_t i = 0; i < size_; ++i) {
      if (keep[i]) bitmap.push_back(null_bitmap_[i]);
    }
    null_bitmap_ = std::move(bitmap);
  }
  size_t kept = 0;
  for (bool k : keep) kept += k ? 1 : 0;
  size_ = kept;
}

void Column::Clear() {
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  arrays_.clear();
  null_bitmap_.clear();
  size_ = 0;
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kBool:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      strings_.reserve(n);
      break;
    case DataType::kIntArray:
      arrays_.reserve(n);
      break;
    case DataType::kNull:
      break;
  }
}

Status Column::ConvertTo(DataType new_type) {
  if (new_type == type_) return Status::OK();
  if (type_ == DataType::kInt64 && new_type == DataType::kDouble) {
    doubles_.reserve(ints_.size());
    for (int64_t v : ints_) doubles_.push_back(static_cast<double>(v));
    ints_.clear();
    ints_.shrink_to_fit();
    type_ = new_type;
    return Status::OK();
  }
  if ((type_ == DataType::kInt64 || type_ == DataType::kDouble) &&
      new_type == DataType::kString) {
    strings_.reserve(size_);
    for (size_t i = 0; i < size_; ++i) {
      strings_.push_back(IsNull(i) ? std::string() : Get(i).ToString());
    }
    ints_.clear();
    doubles_.clear();
    type_ = new_type;
    return Status::OK();
  }
  return Status::NotSupported(
      std::string("cannot widen ") + DataTypeName(type_) + " to " +
      DataTypeName(new_type));
}

void Column::AppendNulls(size_t n) {
  EnsureBitmap();
  for (size_t i = 0; i < n; ++i) {
    switch (type_) {
      case DataType::kInt64:
      case DataType::kBool:
        ints_.push_back(0);
        break;
      case DataType::kDouble:
        doubles_.push_back(0.0);
        break;
      case DataType::kString:
        strings_.emplace_back();
        break;
      case DataType::kIntArray:
        arrays_.emplace_back();
        break;
      case DataType::kNull:
        break;
    }
    ++size_;
    null_bitmap_.push_back(true);
  }
}

int64_t Column::ByteSize() const {
  int64_t bytes = 0;
  switch (type_) {
    case DataType::kInt64:
    case DataType::kBool:
      bytes = static_cast<int64_t>(ints_.size() * sizeof(int64_t));
      break;
    case DataType::kDouble:
      bytes = static_cast<int64_t>(doubles_.size() * sizeof(double));
      break;
    case DataType::kString:
      for (const std::string& s : strings_) {
        bytes += static_cast<int64_t>(s.size()) + 16;  // header estimate
      }
      break;
    case DataType::kIntArray:
      for (const IntArray& a : arrays_) {
        bytes += static_cast<int64_t>(a.size() * sizeof(int64_t)) + 16;
      }
      break;
    case DataType::kNull:
      break;
  }
  if (!null_bitmap_.empty()) bytes += static_cast<int64_t>(size_ / 8 + 1);
  return bytes;
}

}  // namespace orpheus::rel
