// Chunk: a materialized columnar row set — the unit flowing between
// executor operators and the payload of a base table.

#ifndef ORPHEUS_RELSTORE_CHUNK_H_
#define ORPHEUS_RELSTORE_CHUNK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "relstore/column.h"
#include "relstore/schema.h"

namespace orpheus::rel {

class Chunk {
 public:
  Chunk() = default;
  explicit Chunk(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  const Column& column(int i) const { return columns_[static_cast<size_t>(i)]; }
  Column& mutable_column(int i) { return columns_[static_cast<size_t>(i)]; }

  Value Get(size_t row, int col) const { return columns_[static_cast<size_t>(col)].Get(row); }

  // Appends a full row of boxed values (count must match schema).
  void AppendRow(const std::vector<Value>& values);

  // Appends row `row` of `src`, whose schema must be layout-compatible
  // (same column count and types; names may differ).
  void AppendRowFrom(const Chunk& src, size_t row);

  // Appends the selected rows of `src` column-by-column (bulk gather).
  void GatherFrom(const Chunk& src, const std::vector<uint32_t>& rows);

  // Drops rows where keep[i] == false.
  void FilterRows(const std::vector<bool>& keep);

  void Clear();

  // Reserves room for `n` rows in every column (see Column::Reserve).
  void Reserve(size_t n);

  // Appends a new column filled with NULLs (ALTER TABLE ADD COLUMN).
  void AddNullColumn(const std::string& name, DataType type);

  // Widens column `col` in place (ALTER TABLE ALTER COLUMN TYPE).
  Status ConvertColumn(int col, DataType new_type);

  int64_t ByteSize() const;

  // Debug/CLI rendering: header + up to `max_rows` rows.
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
};

}  // namespace orpheus::rel

#endif  // ORPHEUS_RELSTORE_CHUNK_H_
