// Row keys: the engine's one way to hash and compare rows by content.
// Rows hash a column at a time into one int64 key each, the keys index
// a FlatJoinTable, and the rows sharing a key are compared with typed,
// unboxed column equality. Keys only narrow the search; equality alone
// decides, so a key collision can never merge two different rows.
// The executor keys SQL rows (composite or non-INT equi-joins,
// GROUP BY, DISTINCT); the CVD record manager keys records (commit
// resolution, primary-key checks, the merging checkout's dedupe).

#ifndef ORPHEUS_RELSTORE_ROW_KEY_H_
#define ORPHEUS_RELSTORE_ROW_KEY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_join_table.h"
#include "relstore/chunk.h"

namespace orpheus::rel {

// The compared columns of one row set, in order. Two sets are compared
// position by position, so paired columns share a type.
using RecordColumns = std::vector<const Column*>;

// The one point where SQL keys and record identity differ. Both compare
// doubles by bit pattern (0.0 and -0.0 differ) and let NULL equal NULL;
// SQL keys let bit-identical NaNs match (kSameBits), while a NaN record
// matches nothing, itself included (kNever), so it is never reused.
enum class NanMatch { kNever, kSameBits };

// `cols` of `chunk`, in the given order.
RecordColumns ColumnsOf(const Chunk& chunk, const std::vector<int>& cols);

// Appends one content key per row (n rows of `cols`) to `keys`. Ints
// and double bit patterns mix in word-wise, strings and arrays as one
// hash each, NULLs as a tag; rows equal under RecordsMatch always get
// equal keys.
void AppendRecordKeys(const RecordColumns& cols, size_t n,
                      std::vector<int64_t>* keys);

// True if row `row_a` of `a` equals row `row_b` of `b` on every paired
// column, under `nans`.
bool RecordsMatch(const RecordColumns& a, size_t row_a,
                  const RecordColumns& b, size_t row_b,
                  NanMatch nans = NanMatch::kNever);

// The rows of several row sets, concatenated in order, indexed by
// caller-computed content keys.
class RecordIndex {
 public:
  static constexpr uint32_t kNone = FlatJoinTable::kEnd;

  // keys[i] is the key of concatenated row i (one per row of every
  // part); rows equal under RecordsMatch must share a key.
  RecordIndex(std::vector<RecordColumns> parts,
              const std::vector<int64_t>& keys,
              NanMatch nans = NanMatch::kNever);

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
  NanMatch nans_;
};

// Group ids of the rows of `parts` concatenated in order, numbered in
// first-occurrence order: equal rows share an id, and the k-th distinct
// row gets id k. keys[i] is the key of concatenated row i; any keys are
// correct as long as equal rows share one.
std::vector<uint32_t> GroupIds(std::vector<RecordColumns> parts,
                               const std::vector<int64_t>& keys,
                               NanMatch nans = NanMatch::kNever);

// For each part, its ascending rows that equal no earlier row of the
// concatenation (the rows that open a group).
std::vector<std::vector<uint32_t>> FirstOccurrences(
    std::vector<RecordColumns> parts, const std::vector<int64_t>& keys,
    NanMatch nans = NanMatch::kNever);

}  // namespace orpheus::rel

#endif  // ORPHEUS_RELSTORE_ROW_KEY_H_
