// Column: typed columnar storage. Exactly one of the typed vectors is
// active, chosen by type(). Bulk operations (Gather, AppendFrom) avoid
// boxing values; Get/Append box through Value for the expression layer.
//
// NULLs: relstore follows the subset of SQL OrpheusDB needs. Scalar
// columns use a validity bitmap only when a NULL has actually been
// stored (common case: no bitmap, no overhead). This matters for
// schema evolution (§3.3 of the paper), where records from old
// versions carry NULL for later-added attributes.

#ifndef ORPHEUS_RELSTORE_COLUMN_H_
#define ORPHEUS_RELSTORE_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "relstore/types.h"
#include "relstore/value.h"

namespace orpheus::rel {

class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return size_; }

  // Boxed element access (expression layer).
  Value Get(size_t row) const;
  void Append(const Value& value);

  // Unboxed fast paths (bulk layer). Callers must match the type.
  const std::vector<int64_t>& ints() const { return ints_; }
  std::vector<int64_t>& mutable_ints() { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }
  const std::vector<IntArray>& arrays() const { return arrays_; }
  std::vector<IntArray>& mutable_arrays() { return arrays_; }

  void AppendInt(int64_t v) {
    ints_.push_back(v);
    ++size_;
    if (!null_bitmap_.empty()) null_bitmap_.push_back(false);
  }
  void AppendDouble(double v) {
    doubles_.push_back(v);
    ++size_;
    if (!null_bitmap_.empty()) null_bitmap_.push_back(false);
  }
  void AppendString(std::string v) {
    strings_.push_back(std::move(v));
    ++size_;
    if (!null_bitmap_.empty()) null_bitmap_.push_back(false);
  }
  void AppendArray(IntArray v) {
    arrays_.push_back(std::move(v));
    ++size_;
    if (!null_bitmap_.empty()) null_bitmap_.push_back(false);
  }

  bool IsNull(size_t row) const {
    return !null_bitmap_.empty() && null_bitmap_[row];
  }
  void SetNull(size_t row);

  // Serialization support (storage subsystem): whether the validity
  // bitmap is materialized, and a way to materialize it on restore so
  // an allocated-but-all-valid bitmap round-trips exactly.
  bool has_null_bitmap() const { return !null_bitmap_.empty(); }
  void MaterializeNullBitmap() { EnsureBitmap(); }

  // Appends element `row` of `src` (same type) without boxing.
  void AppendFrom(const Column& src, size_t row);

  // Appends src[i] for every i in `rows` (the core of a gather/join).
  // Capacity grows geometrically, so appending k rows to a column of
  // any size costs amortized O(k).
  void Gather(const Column& src, const std::vector<uint32_t>& rows);

  // Overwrites element `row` (UPDATE path).
  void Set(size_t row, const Value& value);

  // Removes the rows flagged in `keep` == false (DELETE path);
  // preserves relative order.
  void Filter(const std::vector<bool>& keep);

  void Clear();

  // Reserves room for `n` elements in all, so appends and gathers up
  // to that size do not reallocate.
  void Reserve(size_t n);

  // In-place type widening (INT -> DOUBLE -> TEXT), used for the
  // paper's single-pool schema evolution (§3.3). Narrowing fails.
  Status ConvertTo(DataType new_type);

  // Appends `n` NULL slots (new column backfill for ALTER ... ADD).
  void AppendNulls(size_t n);

  // Approximate in-memory footprint in bytes, counting string bodies
  // and array payloads; used for the storage-size experiments.
  int64_t ByteSize() const;

 private:
  void EnsureBitmap();

  DataType type_;
  size_t size_ = 0;
  std::vector<int64_t> ints_;         // kInt64 and kBool (0/1)
  std::vector<double> doubles_;       // kDouble
  std::vector<std::string> strings_;  // kString
  std::vector<IntArray> arrays_;      // kIntArray
  // Invariant: empty until the first NULL is stored, exactly `size_`
  // long afterwards — every append path must keep it in step or
  // IsNull reads out of bounds.
  std::vector<bool> null_bitmap_;
};

}  // namespace orpheus::rel

#endif  // ORPHEUS_RELSTORE_COLUMN_H_
