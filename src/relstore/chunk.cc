#include "relstore/chunk.h"

#include <cassert>

namespace orpheus::rel {

Chunk::Chunk(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_.num_columns()));
  for (const ColumnDef& def : schema_.columns()) {
    columns_.emplace_back(def.type);
  }
}

void Chunk::AppendRow(const std::vector<Value>& values) {
  assert(static_cast<int>(values.size()) == schema_.num_columns());
  for (size_t i = 0; i < values.size(); ++i) {
    columns_[i].Append(values[i]);
  }
}

void Chunk::AppendRowFrom(const Chunk& src, size_t row) {
  assert(src.num_columns() == num_columns());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendFrom(src.columns_[i], row);
  }
}

void Chunk::GatherFrom(const Chunk& src, const std::vector<uint32_t>& rows) {
  assert(src.num_columns() == num_columns());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].Gather(src.columns_[i], rows);
  }
}

void Chunk::FilterRows(const std::vector<bool>& keep) {
  for (Column& col : columns_) col.Filter(keep);
}

void Chunk::Reserve(size_t n) {
  for (Column& col : columns_) col.Reserve(n);
}

void Chunk::Clear() {
  for (Column& col : columns_) col.Clear();
}

void Chunk::AddNullColumn(const std::string& name, DataType type) {
  size_t rows = num_rows();
  schema_.AddColumn(name, type);
  columns_.emplace_back(type);
  columns_.back().AppendNulls(rows);
}

Status Chunk::ConvertColumn(int col, DataType new_type) {
  ORPHEUS_RETURN_NOT_OK(columns_[static_cast<size_t>(col)].ConvertTo(new_type));
  Schema updated;
  for (int i = 0; i < schema_.num_columns(); ++i) {
    updated.AddColumn(schema_.column(i).name,
                      i == col ? new_type : schema_.column(i).type);
  }
  schema_ = std::move(updated);
  return Status::OK();
}

int64_t Chunk::ByteSize() const {
  int64_t bytes = 0;
  for (const Column& col : columns_) bytes += col.ByteSize();
  return bytes;
}

std::string Chunk::ToString(size_t max_rows) const {
  std::string out;
  for (int c = 0; c < schema_.num_columns(); ++c) {
    if (c > 0) out += " | ";
    out += schema_.column(c).name;
  }
  out += "\n";
  size_t n = std::min(num_rows(), max_rows);
  for (size_t r = 0; r < n; ++r) {
    for (int c = 0; c < num_columns(); ++c) {
      if (c > 0) out += " | ";
      out += Get(r, c).ToString();
    }
    out += "\n";
  }
  if (num_rows() > n) {
    out += "... (" + std::to_string(num_rows() - n) + " more rows)\n";
  }
  return out;
}

}  // namespace orpheus::rel
