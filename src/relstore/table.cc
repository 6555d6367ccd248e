#include "relstore/table.h"

#include <algorithm>
#include <numeric>

namespace orpheus::rel {

uint64_t Table::NextEpoch() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Table::Table(std::string name, Schema schema, std::vector<std::string> primary_key)
    : name_(std::move(name)),
      chunk_(std::move(schema)),
      primary_key_(std::move(primary_key)),
      epoch_(NextEpoch()) {}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (static_cast<int>(values.size()) != schema().num_columns()) {
    return Status::InvalidArgument(
        "row arity mismatch for table " + name_ + ": got " +
        std::to_string(values.size()) + ", want " +
        std::to_string(schema().num_columns()));
  }
  chunk_.AppendRow(values);
  InvalidateIndexes();
  return Status::OK();
}

Status Table::AddColumn(const std::string& name, DataType type) {
  if (schema().FindColumn(name) >= 0) {
    return Status::AlreadyExists("column already exists: " + name);
  }
  chunk_.AddNullColumn(name, type);
  InvalidateIndexes();
  return Status::OK();
}

Status Table::AlterColumnType(const std::string& name, DataType new_type) {
  int col = schema().FindColumn(name);
  if (col < 0) return Status::NotFound("no column " + name + " in " + name_);
  ORPHEUS_RETURN_NOT_OK(chunk_.ConvertColumn(col, new_type));
  InvalidateIndexes();
  return Status::OK();
}

Status Table::DeclareIndex(const std::string& column) {
  int col = schema().FindColumn(column);
  if (col < 0) return Status::NotFound("no column " + column + " in " + name_);
  if (schema().column(col).type != DataType::kInt64) {
    return Status::NotSupported("indexes are supported on INT columns only");
  }
  indexes_.try_emplace(column);
  // The declared-index list is part of the table's serialized form.
  BumpEpoch();
  return Status::OK();
}

bool Table::HasIndex(const std::string& column) const {
  return indexes_.count(column) > 0;
}

std::vector<std::string> Table::DeclaredIndexColumns() const {
  std::vector<std::string> columns;
  columns.reserve(indexes_.size());
  for (const auto& [column, index] : indexes_) columns.push_back(column);
  std::sort(columns.begin(), columns.end());
  return columns;
}

Result<const FlatJoinTable*> Table::Index(const std::string& column) {
  auto it = indexes_.find(column);
  if (it == indexes_.end()) {
    return Status::NotFound("no index declared on " + column + " in " + name_);
  }
  std::lock_guard<std::mutex> lock(index_mu_);
  IntIndex& index = it->second;
  if (!index.built) {
    int col = schema().FindColumn(column);
    if (col < 0) return Status::NotFound("no column " + column + " in " + name_);
    const Column& data = chunk_.column(col);
    // NULLs are not indexed.
    index.table.Build(data.ints(), [&data](size_t i) { return data.IsNull(i); });
    index.built = true;
  }
  return &index.table;
}

void Table::InvalidateIndexes() {
  BumpEpoch();
  std::lock_guard<std::mutex> lock(index_mu_);
  // Keeps each index's arrays, so the rebuild refills them in place
  // rather than allocating (and faulting in) fresh ones.
  for (auto& [name, index] : indexes_) index.built = false;
}

Status Table::ClusterBy(const std::string& column) {
  int col = schema().FindColumn(column);
  if (col < 0) return Status::NotFound("no column " + column + " in " + name_);
  if (schema().column(col).type != DataType::kInt64) {
    return Status::NotSupported("CLUSTER BY is supported on INT columns only");
  }
  const std::vector<int64_t>& keys = chunk_.column(col).ints();
  std::vector<uint32_t> order(chunk_.num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&keys](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
  Chunk sorted(schema());
  sorted.GatherFrom(chunk_, order);
  chunk_ = std::move(sorted);
  clustered_on_ = column;
  InvalidateIndexes();
  return Status::OK();
}

int64_t Table::rows_per_page() const {
  constexpr int64_t kPageBytes = 8192;
  size_t rows = chunk_.num_rows();
  if (rows == 0) return 1;
  int64_t row_bytes = std::max<int64_t>(1, chunk_.ByteSize() / static_cast<int64_t>(rows));
  return std::max<int64_t>(1, kPageBytes / row_bytes);
}

int64_t Table::num_pages() const {
  int64_t rpp = rows_per_page();
  return (static_cast<int64_t>(chunk_.num_rows()) + rpp - 1) / rpp;
}

int64_t Table::ByteSize() const { return chunk_.ByteSize(); }

int64_t Table::IndexByteSize() const {
  // Estimate whether built or not: one posting per row plus bucket
  // overhead per index, matching how the paper counts "index size".
  return static_cast<int64_t>(indexes_.size()) *
         static_cast<int64_t>(chunk_.num_rows()) * 16;
}

}  // namespace orpheus::rel
