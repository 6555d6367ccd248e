#include "relstore/database.h"

#include <numeric>
#include <utility>

#include "relstore/eval.h"
#include "relstore/parser.h"

namespace orpheus::rel {

namespace {

Status CannotEnter(DataType type, const ColumnDef& column) {
  return Status::InvalidArgument(std::string(DataTypeName(type)) +
                                 " value cannot enter " +
                                 DataTypeName(column.type) + " column " +
                                 column.name);
}

// `v` as a value of `column`: NULL and a value of the column's type as
// they are, a value Column::ConvertTo widens to it (INT to DOUBLE, INT
// or DOUBLE to TEXT) widened, anything else refused. INSERT ... SELECT
// converts its selected columns by the same rule.
Result<Value> ValueForColumn(const Value& v, const ColumnDef& column) {
  if (v.is_null() || v.type() == column.type) return v;
  Column widened(v.type());
  widened.Append(v);
  if (!widened.ConvertTo(column.type).ok()) return CannotEnter(v.type(), column);
  return widened.Get(0);
}

// The rows of `data` that satisfy `where` (all rows without one), in
// row order, by the executor's FilterSelection.
Result<std::vector<uint32_t>> MatchingRows(Executor* executor, Evaluator* eval,
                                           Expr* where, const Chunk& data) {
  std::vector<uint32_t> rows;
  if (where == nullptr) {
    rows.resize(data.num_rows());
    std::iota(rows.begin(), rows.end(), 0);
    return rows;
  }
  ORPHEUS_RETURN_NOT_OK(eval->Bind(where, data.schema()));
  ORPHEUS_RETURN_NOT_OK(executor->FilterSelection(*eval, {where}, data, &rows));
  return rows;
}

}  // namespace

Result<Chunk> Database::Execute(std::string_view sql) {
  ORPHEUS_ASSIGN_OR_RETURN(auto stmt, ParseSql(sql));
  return ExecuteStatement(stmt.get());
}

Result<Chunk> Database::ExecuteScript(std::string_view script) {
  Chunk last;
  size_t start = 0;
  while (start < script.size()) {
    // Split on ';' outside string literals.
    size_t i = start;
    bool in_string = false;
    while (i < script.size()) {
      if (script[i] == '\'') in_string = !in_string;
      if (script[i] == ';' && !in_string) break;
      ++i;
    }
    std::string_view piece = script.substr(start, i - start);
    start = i + 1;
    bool all_space = true;
    for (char c : piece) {
      if (!std::isspace(static_cast<unsigned char>(c))) {
        all_space = false;
        break;
      }
    }
    if (all_space) continue;
    ORPHEUS_ASSIGN_OR_RETURN(last, Execute(piece));
  }
  return last;
}

Status Database::CreateTable(const std::string& name, Schema schema,
                             std::vector<std::string> primary_key) {
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  auto table = std::make_unique<Table>(name, std::move(schema),
                                       std::move(primary_key));
  // Physical primary-key index on single-column INT keys, as the
  // paper builds on rid / vid.
  if (table->primary_key().size() == 1) {
    int col = table->schema().FindColumn(table->primary_key()[0]);
    if (col >= 0 && table->schema().column(col).type == DataType::kInt64) {
      ORPHEUS_RETURN_NOT_OK(table->DeclareIndex(table->primary_key()[0]));
    }
  }
  tables_[name] = std::move(table);
  return Status::OK();
}

Status Database::DropTable(const std::string& name, bool if_exists) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    if (if_exists) return Status::OK();
    return Status::NotFound("no such table: " + name);
  }
  tables_.erase(it);
  return Status::OK();
}

bool Database::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return it->second.get();
}

std::vector<std::string> Database::ListTables() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

Status Database::AdoptTable(const std::string& name, Chunk chunk,
                            std::vector<std::string> primary_key) {
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  ORPHEUS_RETURN_NOT_OK(CreateTable(name, chunk.schema(), std::move(primary_key)));
  tables_[name]->mutable_chunk() = std::move(chunk);
  return Status::OK();
}

Status Database::AdoptTableObject(std::unique_ptr<Table> table) {
  const std::string& name = table->name();
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  tables_[name] = std::move(table);
  return Status::OK();
}

int64_t Database::TotalByteSize() const {
  int64_t bytes = 0;
  for (const auto& [name, table] : tables_) {
    bytes += table->ByteSize() + table->IndexByteSize();
  }
  return bytes;
}

Result<Chunk> Database::ExecuteStatement(Statement* stmt) {
  switch (stmt->kind) {
    case Statement::Kind::kSelect: {
      Executor executor(this);
      ORPHEUS_ASSIGN_OR_RETURN(Chunk out, executor.RunSelect(*stmt->select));
      // Prefer unqualified output names when unambiguous.
      Schema plain = out.schema().Unqualified();
      bool unique = true;
      for (int i = 0; i < plain.num_columns() && unique; ++i) {
        for (int j = i + 1; j < plain.num_columns(); ++j) {
          if (plain.column(i).name == plain.column(j).name) {
            unique = false;
            break;
          }
        }
      }
      if (unique) {
        Chunk renamed(plain);
        for (int c = 0; c < out.num_columns(); ++c) {
          renamed.mutable_column(c) = std::move(out.mutable_column(c));
        }
        out = std::move(renamed);
      }
      if (!stmt->select->into_table.empty()) {
        ORPHEUS_RETURN_NOT_OK(AdoptTable(stmt->select->into_table, std::move(out)));
        return Chunk();
      }
      return out;
    }
    case Statement::Kind::kInsert:
      return ExecuteInsert(stmt);
    case Statement::Kind::kUpdate:
      return ExecuteUpdate(stmt);
    case Statement::Kind::kDelete:
      return ExecuteDelete(stmt);
    case Statement::Kind::kCreateTable: {
      if (stmt->if_not_exists && HasTable(stmt->table)) return Chunk();
      Schema schema(stmt->column_defs);
      ORPHEUS_RETURN_NOT_OK(CreateTable(stmt->table, std::move(schema),
                                        stmt->primary_key));
      return Chunk();
    }
    case Statement::Kind::kDropTable:
      ORPHEUS_RETURN_NOT_OK(DropTable(stmt->table, stmt->if_exists));
      return Chunk();
    case Statement::Kind::kCreateIndex: {
      ORPHEUS_ASSIGN_OR_RETURN(Table * table, GetTable(stmt->table));
      ORPHEUS_RETURN_NOT_OK(table->DeclareIndex(stmt->index_column));
      return Chunk();
    }
    case Statement::Kind::kClusterBy: {
      ORPHEUS_ASSIGN_OR_RETURN(Table * table, GetTable(stmt->table));
      ORPHEUS_RETURN_NOT_OK(table->ClusterBy(stmt->index_column));
      return Chunk();
    }
  }
  return Status::Internal("unhandled statement kind");
}

Result<Chunk> Database::ExecuteInsert(Statement* stmt) {
  ORPHEUS_ASSIGN_OR_RETURN(Table * table, GetTable(stmt->table));
  const Schema& schema = table->schema();

  // Map the statement's column list (or full schema) to positions.
  std::vector<int> positions;
  if (stmt->columns.empty()) {
    positions.resize(static_cast<size_t>(schema.num_columns()));
    for (int i = 0; i < schema.num_columns(); ++i) positions[static_cast<size_t>(i)] = i;
  } else {
    for (const std::string& col : stmt->columns) {
      int pos = schema.FindColumn(col);
      if (pos < 0) {
        return Status::NotFound("no column " + col + " in " + stmt->table);
      }
      positions.push_back(pos);
    }
  }

  // Every new row is complete and converted to the column types before
  // the table changes, so a failing statement leaves it as it was.
  Executor executor(this);
  if (stmt->insert_select != nullptr) {
    if (!stmt->columns.empty()) {
      return Status::NotSupported(
          "INSERT ... SELECT with explicit columns is not supported");
    }
    ORPHEUS_ASSIGN_OR_RETURN(Chunk rows, executor.RunSelect(*stmt->insert_select));
    if (rows.num_columns() != schema.num_columns()) {
      return Status::InvalidArgument("INSERT ... SELECT arity mismatch");
    }
    for (int c = 0; c < rows.num_columns(); ++c) {
      Column& col = rows.mutable_column(c);
      if (!col.ConvertTo(schema.column(c).type).ok()) {
        return CannotEnter(col.type(), schema.column(c));
      }
    }
    std::vector<uint32_t> all(rows.num_rows());
    std::iota(all.begin(), all.end(), 0);
    table->mutable_chunk().GatherFrom(rows, all);
    return Chunk();
  }

  Evaluator eval(&executor);
  Schema empty;
  Chunk dummy(empty);
  std::vector<std::vector<Value>> new_rows;
  new_rows.reserve(stmt->values.size());
  for (std::vector<ExprPtr>& row : stmt->values) {
    if (row.size() != positions.size()) {
      return Status::InvalidArgument("INSERT row arity mismatch");
    }
    std::vector<Value> values(static_cast<size_t>(schema.num_columns()));
    for (size_t i = 0; i < row.size(); ++i) {
      ORPHEUS_RETURN_NOT_OK(eval.Bind(row[i].get(), empty));
      ORPHEUS_ASSIGN_OR_RETURN(Value v, eval.Eval(*row[i], dummy, 0));
      ORPHEUS_ASSIGN_OR_RETURN(values[static_cast<size_t>(positions[i])],
                               ValueForColumn(v, schema.column(positions[i])));
    }
    new_rows.push_back(std::move(values));
  }
  for (const std::vector<Value>& values : new_rows) {
    ORPHEUS_RETURN_NOT_OK(table->AppendRow(values));
  }
  return Chunk();
}

Result<Chunk> Database::ExecuteUpdate(Statement* stmt) {
  ORPHEUS_ASSIGN_OR_RETURN(Table * table, GetTable(stmt->table));
  const Schema& schema = table->schema();
  Executor executor(this);
  Evaluator eval(&executor);

  std::vector<int> target_cols;
  for (auto& [col, expr] : stmt->assignments) {
    int pos = schema.FindColumn(col);
    if (pos < 0) return Status::NotFound("no column " + col + " in " + stmt->table);
    target_cols.push_back(pos);
    ORPHEUS_RETURN_NOT_OK(eval.Bind(expr.get(), schema));
  }
  const Chunk& data = table->data();
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                           MatchingRows(&executor, &eval, stmt->where.get(), data));

  // Every assignment is evaluated against the rows as they were and
  // converted to its column's type before any row is written, so a
  // failing statement leaves the table as it was.
  std::vector<std::vector<Value>> new_values(target_cols.size());
  for (size_t a = 0; a < target_cols.size(); ++a) {
    ORPHEUS_RETURN_NOT_OK(executor.EvalScalarBatched(
        eval, *stmt->assignments[a].second, data, rows, &new_values[a]));
    for (Value& v : new_values[a]) {
      ORPHEUS_ASSIGN_OR_RETURN(v, ValueForColumn(v, schema.column(target_cols[a])));
    }
  }
  Chunk& chunk = table->mutable_chunk();
  for (size_t a = 0; a < target_cols.size(); ++a) {
    Column& col = chunk.mutable_column(target_cols[a]);
    for (size_t i = 0; i < rows.size(); ++i) col.Set(rows[i], new_values[a][i]);
  }
  stats_.rows_scanned += static_cast<int64_t>(chunk.num_rows());
  stats_.pages_read += table->num_pages();
  return Chunk();
}

Result<Chunk> Database::ExecuteDelete(Statement* stmt) {
  ORPHEUS_ASSIGN_OR_RETURN(Table * table, GetTable(stmt->table));
  Executor executor(this);
  Evaluator eval(&executor);
  ORPHEUS_ASSIGN_OR_RETURN(
      std::vector<uint32_t> rows,
      MatchingRows(&executor, &eval, stmt->where.get(), table->data()));
  std::vector<bool> keep(table->num_rows(), true);
  for (uint32_t row : rows) keep[row] = false;
  table->mutable_chunk().FilterRows(keep);
  stats_.rows_scanned += static_cast<int64_t>(keep.size());
  stats_.pages_read += table->num_pages();
  return Chunk();
}

}  // namespace orpheus::rel
