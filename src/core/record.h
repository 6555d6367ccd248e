// Record identity helpers. Records in a CVD are immutable: any change
// to a record's attributes yields a new record (new rid). The record
// manager detects reuse by content: rows hash a column at a time into
// one int64 key each, the keys index a FlatJoinTable, and the rows
// sharing a key are compared with typed, unboxed column equality.
// Keys only narrow the search; equality alone decides, so a key
// collision can never merge two different records.

#ifndef ORPHEUS_CORE_RECORD_H_
#define ORPHEUS_CORE_RECORD_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_join_table.h"
#include "relstore/chunk.h"

namespace orpheus::core {

using RecordId = int64_t;

// The compared columns of one row set, in attribute order. Two sets
// are compared position by position, so paired columns share a type.
using RecordColumns = std::vector<const rel::Column*>;

// `cols` of `chunk`, in the given order.
RecordColumns ColumnsOf(const rel::Chunk& chunk, const std::vector<int>& cols);

// Appends one content key per row (n rows of `cols`) to `keys`. Ints
// and double bit patterns mix in word-wise, strings and arrays as one
// hash each, NULLs as a tag; rows equal under RecordsMatch always get
// equal keys.
void AppendRecordKeys(const RecordColumns& cols, size_t n,
                      std::vector<int64_t>* keys);

// True if row `row_a` of `a` equals row `row_b` of `b` on every paired
// column. NULL equals NULL; doubles are equal when bit-identical and
// not NaN (so 0.0 differs from -0.0, and NaN from everything).
bool RecordsMatch(const RecordColumns& a, size_t row_a,
                  const RecordColumns& b, size_t row_b);

// The rows of several row sets, concatenated in order, indexed by
// caller-computed content keys.
class RecordIndex {
 public:
  static constexpr uint32_t kNone = FlatJoinTable::kEnd;

  // keys[i] is the key of concatenated row i (one per row of every
  // part); rows equal under RecordsMatch must share a key.
  RecordIndex(std::vector<RecordColumns> parts,
              const std::vector<int64_t>& keys);

  // The first concatenated row before `limit` that equals row `row` of
  // `probe` (whose key is `key`), or kNone.
  uint32_t FindFirst(int64_t key, const RecordColumns& probe, size_t row,
                     uint32_t limit = kNone) const;

  // FindFirst for every row of `probe`, whose row r has key keys[r]:
  // the result equals per-row FindFirst. Each row's first key hit is
  // verified a column at a time with typed loops; only rows whose
  // first hit differs walk the rest of their chain.
  std::vector<uint32_t> FindFirstBatch(const std::vector<int64_t>& keys,
                                       const RecordColumns& probe) const;

  // {part, row within the part} of concatenated row i.
  std::pair<size_t, size_t> Locate(uint32_t i) const;

  const std::vector<RecordColumns>& parts() const { return parts_; }

 private:
  // The first row before `limit` that equals probe row `row`, walking
  // the key chain from `m`.
  uint32_t FirstMatchFrom(uint32_t m, const RecordColumns& probe, size_t row,
                          uint32_t limit) const;

  std::vector<RecordColumns> parts_;
  std::vector<uint32_t> offsets_;  // first concatenated row of each part
  FlatJoinTable table_;
};

// First-occurrence filter over `parts` concatenated in order: for each
// part, the ascending rows that equal no earlier row. keys[i] is the
// key of concatenated row i. Any keys are correct as long as equal
// rows share one (constant keys just make every probe walk one chain).
std::vector<std::vector<uint32_t>> FirstOccurrences(
    std::vector<RecordColumns> parts, const std::vector<int64_t>& keys);

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_RECORD_H_
