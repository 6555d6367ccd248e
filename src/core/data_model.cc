#include "core/data_model.h"

#include <numeric>
#include <set>
#include <unordered_set>

#include "common/flat_join_table.h"
#include "common/str_util.h"
#include "partition/partition_store.h"

namespace orpheus::core {

namespace {

// Extracts an INT column named `name` from a chunk.
Result<std::vector<int64_t>> IntColumn(const rel::Chunk& chunk,
                                       const std::string& name) {
  ORPHEUS_ASSIGN_OR_RETURN(int col, chunk.schema().Resolve(name));
  if (chunk.column(col).type() != rel::DataType::kInt64) {
    return Status::Internal("column " + name + " is not INT");
  }
  return chunk.column(col).ints();
}

// Bulk-appends `rows` (schema: rid + data) into `table`, whose leading
// columns must match. This is the middleware's COPY-equivalent bulk
// path; per-row INSERT statements would only add parse overhead.
Status BulkAppend(rel::Table* table, const rel::Chunk& rows) {
  if (rows.num_rows() == 0) return Status::OK();
  std::vector<uint32_t> all(rows.num_rows());
  std::iota(all.begin(), all.end(), 0);
  rel::Chunk& dst = table->mutable_chunk();
  for (int c = 0; c < rows.num_columns(); ++c) {
    dst.mutable_column(c).Gather(rows.column(c), all);
  }
  // Backfill any trailing columns (e.g. vlist) — caller fills them.
  return Status::OK();
}

// Table 1 commit of the vlist models, `UPDATE <table> SET vlist =
// vlist + vid WHERE rid IN (<the version's rids>)`: one scan of the
// table's rid column, appending `vid` to every member's vlist. Counts
// the scan in the database stats as the UPDATE would.
void AppendToVlists(rel::Database* db, rel::Table* table, VersionId vid,
                    const std::vector<RecordId>& rids) {
  FlatJoinTable members;
  members.Build(rids);
  rel::Chunk& chunk = table->mutable_chunk();
  const std::vector<int64_t>& row_rids = chunk.column(0).ints();
  std::vector<rel::IntArray>& vlists =
      chunk.mutable_column(table->schema().FindColumn("vlist")).mutable_arrays();
  for (size_t row = 0; row < row_rids.size(); ++row) {
    if (members.Find(row_rids[row]) != FlatJoinTable::kEnd) {
      vlists[row].push_back(vid);
    }
  }
  db->stats()->rows_scanned += static_cast<int64_t>(row_rids.size());
  db->stats()->pages_read += table->num_pages();
}

}  // namespace

const char* DataModelKindName(DataModelKind kind) {
  switch (kind) {
    case DataModelKind::kTablePerVersion:
      return "a-table-per-version";
    case DataModelKind::kCombinedTable:
      return "combined-table";
    case DataModelKind::kSplitByVlist:
      return "split-by-vlist";
    case DataModelKind::kSplitByRlist:
      return "split-by-rlist";
    case DataModelKind::kDeltaBased:
      return "delta-based";
  }
  return "unknown";
}

Result<DataModelKind> DataModelKindFromName(const std::string& name) {
  std::string lower = ToLower(name);
  if (lower == "a-table-per-version" || lower == "tpv") {
    return DataModelKind::kTablePerVersion;
  }
  if (lower == "combined-table" || lower == "combined") {
    return DataModelKind::kCombinedTable;
  }
  if (lower == "split-by-vlist" || lower == "vlist") {
    return DataModelKind::kSplitByVlist;
  }
  if (lower == "split-by-rlist" || lower == "rlist") {
    return DataModelKind::kSplitByRlist;
  }
  if (lower == "delta-based" || lower == "delta") {
    return DataModelKind::kDeltaBased;
  }
  return Status::InvalidArgument("unknown data model: " + name);
}

std::string RlistVersionSql(const std::string& data_table,
                            const std::string& versioning_table, VersionId vid) {
  // Unnest the version's rlist, join the data table on rid.
  return "SELECT d.* FROM " + data_table +
         " d, (SELECT unnest(rlist) AS orpheus_rid FROM " +
         versioning_table + " WHERE vid = " + std::to_string(vid) +
         ") AS orpheus_v WHERE d.rid = orpheus_v.orpheus_rid";
}

DataModel::DataModel(rel::Database* db, std::string cvd_name,
                     rel::Schema data_schema)
    : db_(db), cvd_name_(std::move(cvd_name)), data_schema_(std::move(data_schema)) {}

rel::Schema DataModel::RecordSchema() const {
  rel::Schema schema;
  schema.AddColumn("rid", rel::DataType::kInt64);
  for (const rel::ColumnDef& def : data_schema_.columns()) {
    schema.AddColumn(def.name, def.type);
  }
  return schema;
}

std::string DataModel::RecordColumnList() const {
  std::vector<std::string> cols = {"rid"};
  for (const rel::ColumnDef& def : data_schema_.columns()) {
    cols.push_back(def.name);
  }
  return Join(cols, ", ");
}

int64_t DataModel::TableBytes(const std::string& table) const {
  auto result = db_->GetTable(table);
  if (!result.ok()) return 0;
  return result.value()->ByteSize() + result.value()->IndexByteSize();
}

Status DataModel::AddDataColumn(const std::string& name, rel::DataType type) {
  rel::Schema schema = data_schema_;
  schema.AddColumn(name, type);
  return AlignDataTables(std::move(schema));
}

Status DataModel::WidenDataColumn(const std::string& name, rel::DataType type) {
  rel::Schema schema;
  for (const rel::ColumnDef& def : data_schema_.columns()) {
    schema.AddColumn(def.name, def.name == name ? type : def.type);
  }
  return AlignDataTables(std::move(schema));
}

Status DataModel::AlignDataTables(rel::Schema schema) {
  const std::vector<std::string> tables = DataTables();
  if (tables.empty()) {
    return Status::NotSupported(std::string(DataModelKindName(kind())) +
                                " does not support schema evolution");
  }
  for (const std::string& table : tables) {
    ORPHEUS_ASSIGN_OR_RETURN(rel::Table * data, db_->GetTable(table));
    for (const rel::ColumnDef& def : schema.columns()) {
      const int col = data->schema().FindColumn(def.name);
      if (col < 0) {
        ORPHEUS_RETURN_NOT_OK(data->AddColumn(def.name, def.type));
      } else if (data->schema().column(col).type != def.type) {
        ORPHEUS_RETURN_NOT_OK(data->AlterColumnType(def.name, def.type));
      }
    }
  }
  data_schema_ = std::move(schema);
  return Status::OK();
}

Status DataModel::RestoreFromTables(const VersionGraph& graph) {
  (void)graph;
  return Status::OK();
}

std::unique_ptr<DataModel> MakeDataModel(DataModelKind kind, rel::Database* db,
                                         const std::string& cvd_name,
                                         rel::Schema data_schema) {
  switch (kind) {
    case DataModelKind::kTablePerVersion:
      return std::make_unique<TablePerVersionModel>(db, cvd_name,
                                                    std::move(data_schema));
    case DataModelKind::kCombinedTable:
      return std::make_unique<CombinedTableModel>(db, cvd_name,
                                                  std::move(data_schema));
    case DataModelKind::kSplitByVlist:
      return std::make_unique<SplitByVlistModel>(db, cvd_name,
                                                 std::move(data_schema));
    case DataModelKind::kSplitByRlist:
      return std::make_unique<SplitByRlistModel>(db, cvd_name,
                                                 std::move(data_schema));
    case DataModelKind::kDeltaBased:
      return std::make_unique<DeltaBasedModel>(db, cvd_name,
                                               std::move(data_schema));
  }
  return nullptr;
}

// --- A-table-per-version ----------------------------------------------

std::string TablePerVersionModel::VersionTable(VersionId vid) const {
  return cvd_name_ + "_v" + std::to_string(vid);
}

Status TablePerVersionModel::Init() { return Status::OK(); }

Status TablePerVersionModel::AddVersion(VersionId vid, const rel::Chunk& content,
                                        const std::vector<RecordId>& rids,
                                        const rel::Chunk& new_records,
                                        VersionId primary_parent) {
  (void)rids;
  (void)new_records;
  (void)primary_parent;
  // Copy the version wholesale; that is the point of this model.
  ORPHEUS_RETURN_NOT_OK(db_->AdoptTable(VersionTable(vid), content));
  versions_.push_back(vid);
  return Status::OK();
}

Result<rel::Chunk> TablePerVersionModel::VersionRows(VersionId vid) {
  return db_->Execute("SELECT " + RecordColumnList() + " FROM " + VersionTable(vid));
}

Result<std::vector<RecordId>> TablePerVersionModel::VersionRecords(VersionId vid) {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk out,
                           db_->Execute("SELECT rid FROM " + VersionTable(vid)));
  return IntColumn(out, "rid");
}

int64_t TablePerVersionModel::StorageBytes() const {
  int64_t bytes = 0;
  for (VersionId vid : versions_) bytes += TableBytes(VersionTable(vid));
  return bytes;
}

Status TablePerVersionModel::RestoreFromTables(const VersionGraph& graph) {
  versions_ = graph.versions();
  for (VersionId vid : versions_) {
    if (!db_->HasTable(VersionTable(vid))) {
      return Status::Internal("missing version table after restore: " +
                              VersionTable(vid));
    }
  }
  return Status::OK();
}

// --- Combined table ----------------------------------------------------

Status CombinedTableModel::Init() {
  rel::Schema schema = RecordSchema();
  schema.AddColumn("vlist", rel::DataType::kIntArray);
  return db_->CreateTable(CombinedTable(), std::move(schema), {"rid"});
}

Status CombinedTableModel::AddVersion(VersionId vid, const rel::Chunk& content,
                                      const std::vector<RecordId>& rids,
                                      const rel::Chunk& new_records,
                                      VersionId primary_parent) {
  (void)content;
  (void)primary_parent;
  // Table 1 commit: append vid to vlist for every record of the new
  // version already present in the CVD. New records are not yet in the
  // combined table, so the rid set matches exactly the reused ones.
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * table, db_->GetTable(CombinedTable()));
  AppendToVlists(db_, table, vid, rids);
  // Bulk-insert the new records with a singleton vlist.
  if (new_records.num_rows() > 0) {
    ORPHEUS_RETURN_NOT_OK(BulkAppend(table, new_records));
    rel::Column& vlist =
        table->mutable_chunk().mutable_column(table->schema().FindColumn("vlist"));
    for (size_t i = 0; i < new_records.num_rows(); ++i) {
      vlist.AppendArray({vid});
    }
  }
  return Status::OK();
}

Result<rel::Chunk> CombinedTableModel::VersionRows(VersionId vid) {
  // Table 1 checkout: array-containment scan over the combined table.
  return db_->Execute("SELECT " + RecordColumnList() + " FROM " + CombinedTable() +
                      " WHERE ARRAY[" + std::to_string(vid) + "] <@ vlist");
}

Result<std::vector<RecordId>> CombinedTableModel::VersionRecords(VersionId vid) {
  ORPHEUS_ASSIGN_OR_RETURN(
      rel::Chunk out,
      db_->Execute("SELECT rid FROM " + CombinedTable() + " WHERE ARRAY[" +
                   std::to_string(vid) + "] <@ vlist"));
  return IntColumn(out, "rid");
}

int64_t CombinedTableModel::StorageBytes() const {
  return TableBytes(CombinedTable());
}

// --- Split-by-vlist ------------------------------------------------------

Status SplitByVlistModel::Init() {
  ORPHEUS_RETURN_NOT_OK(db_->CreateTable(DataTable(), RecordSchema(), {"rid"}));
  rel::Schema versioning;
  versioning.AddColumn("rid", rel::DataType::kInt64);
  versioning.AddColumn("vlist", rel::DataType::kIntArray);
  return db_->CreateTable(VersioningTable(), std::move(versioning), {"rid"});
}

Status SplitByVlistModel::AddVersion(VersionId vid, const rel::Chunk& content,
                                     const std::vector<RecordId>& rids,
                                     const rel::Chunk& new_records,
                                     VersionId primary_parent) {
  (void)content;
  (void)primary_parent;
  // Table 1 commit: same array-append as combined-table, but on the
  // (narrow) versioning table.
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * versioning,
                           db_->GetTable(VersioningTable()));
  AppendToVlists(db_, versioning, vid, rids);
  if (new_records.num_rows() > 0) {
    ORPHEUS_ASSIGN_OR_RETURN(rel::Table * data, db_->GetTable(DataTable()));
    ORPHEUS_RETURN_NOT_OK(BulkAppend(data, new_records));
    ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> new_rids,
                             IntColumn(new_records, "rid"));
    rel::Chunk& vc = versioning->mutable_chunk();
    for (int64_t rid : new_rids) {
      vc.mutable_column(0).AppendInt(rid);
      vc.mutable_column(1).AppendArray({vid});
    }
  }
  return Status::OK();
}

Result<rel::Chunk> SplitByVlistModel::VersionRows(VersionId vid) {
  // Table 1 checkout: select qualifying rids, then join the data table.
  return db_->Execute("SELECT d.* FROM " + DataTable() +
                      " d, (SELECT rid AS rid_tmp FROM " + VersioningTable() +
                      " WHERE ARRAY[" + std::to_string(vid) +
                      "] <@ vlist) AS tmp WHERE d.rid = tmp.rid_tmp");
}

Result<std::vector<RecordId>> SplitByVlistModel::VersionRecords(VersionId vid) {
  ORPHEUS_ASSIGN_OR_RETURN(
      rel::Chunk out,
      db_->Execute("SELECT rid FROM " + VersioningTable() + " WHERE ARRAY[" +
                   std::to_string(vid) + "] <@ vlist"));
  return IntColumn(out, "rid");
}

int64_t SplitByVlistModel::StorageBytes() const {
  return TableBytes(DataTable()) + TableBytes(VersioningTable());
}

// --- Split-by-rlist ------------------------------------------------------

SplitByRlistModel::~SplitByRlistModel() = default;

Status SplitByRlistModel::Init() {
  ORPHEUS_RETURN_NOT_OK(db_->CreateTable(DataTable(), RecordSchema(), {"rid"}));
  rel::Schema versioning;
  versioning.AddColumn("vid", rel::DataType::kInt64);
  versioning.AddColumn("rlist", rel::DataType::kIntArray);
  return db_->CreateTable(VersioningTable(), std::move(versioning), {"vid"});
}

Status SplitByRlistModel::AddVersion(VersionId vid, const rel::Chunk& content,
                                     const std::vector<RecordId>& rids,
                                     const rel::Chunk& new_records,
                                     VersionId primary_parent) {
  (void)content;
  (void)primary_parent;
  if (new_records.num_rows() > 0) {
    ORPHEUS_ASSIGN_OR_RETURN(rel::Table * data, db_->GetTable(DataTable()));
    ORPHEUS_RETURN_NOT_OK(BulkAppend(data, new_records));
  }
  // Table 1 commit: a single versioning-table tuple — no array appends.
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * versioning,
                           db_->GetTable(VersioningTable()));
  rel::Chunk& tuples = versioning->mutable_chunk();
  tuples.mutable_column(0).AppendInt(vid);
  tuples.mutable_column(1).AppendArray(rids);
  return Status::OK();
}

Result<rel::Chunk> SplitByRlistModel::VersionRows(VersionId vid) {
  auto [data, versioning] = TablesFor(vid);
  return db_->Execute(RlistVersionSql(data, versioning, vid));
}

Result<std::vector<RecordId>> SplitByRlistModel::VersionRecords(VersionId vid) {
  ORPHEUS_ASSIGN_OR_RETURN(
      rel::Chunk out,
      db_->Execute("SELECT unnest(rlist) AS rid FROM " + TablesFor(vid).second +
                   " WHERE vid = " + std::to_string(vid)));
  return IntColumn(out, "rid");
}

bool SplitByRlistModel::ServesFromOwnTables(VersionId vid) const {
  return TablesFor(vid).first == DataTable();
}

std::pair<std::string, std::string> SplitByRlistModel::TablesFor(
    VersionId vid) const {
  if (store_ != nullptr) {
    Result<std::pair<std::string, std::string>> tables = store_->TablesFor(vid);
    if (tables.ok()) return std::move(tables).value();
  }
  return {DataTable(), VersioningTable()};
}

Status SplitByRlistModel::SetPartitionStore(
    std::unique_ptr<part::PartitionStore> store) {
  store_ = std::move(store);
  return AlignDataTables(data_schema_);
}

Result<std::map<VersionId, std::vector<RecordId>>>
SplitByRlistModel::AllVersionRecords() const {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * versioning, db_->GetTable(VersioningTable()));
  const std::vector<int64_t>& vids = versioning->data().column(0).ints();
  const std::vector<rel::IntArray>& rlists = versioning->data().column(1).arrays();
  std::map<VersionId, std::vector<RecordId>> out;
  for (size_t r = 0; r < vids.size(); ++r) out[vids[r]] = rlists[r];
  return out;
}

std::vector<std::string> SplitByRlistModel::DataTables() const {
  std::vector<std::string> tables = {DataTable()};
  if (store_ != nullptr) {
    for (const auto& part : store_->partitions()) tables.push_back(part.data_table);
  }
  return tables;
}

int64_t SplitByRlistModel::StorageBytes() const {
  return TableBytes(DataTable()) + TableBytes(VersioningTable());
}

// --- Delta-based ---------------------------------------------------------

std::string DeltaBasedModel::DeltaTable(VersionId vid) const {
  return cvd_name_ + "_delta_" + std::to_string(vid);
}

Status DeltaBasedModel::Init() {
  rel::Schema meta;
  meta.AddColumn("vid", rel::DataType::kInt64);
  meta.AddColumn("base", rel::DataType::kInt64);
  return db_->CreateTable(cvd_name_ + "_deltameta", std::move(meta), {"vid"});
}

Status DeltaBasedModel::AddVersion(VersionId vid, const rel::Chunk& content,
                                   const std::vector<RecordId>& rids,
                                   const rel::Chunk& new_records,
                                   VersionId primary_parent) {
  (void)new_records;
  rel::Schema delta_schema = RecordSchema();
  delta_schema.AddColumn("tombstone", rel::DataType::kBool);
  ORPHEUS_RETURN_NOT_OK(db_->CreateTable(DeltaTable(vid), delta_schema, {"rid"}));
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * delta, db_->GetTable(DeltaTable(vid)));

  std::unordered_set<RecordId> parent_rids;
  if (primary_parent >= 0) {
    ORPHEUS_ASSIGN_OR_RETURN(std::vector<RecordId> prids,
                             VersionRecords(primary_parent));
    parent_rids.insert(prids.begin(), prids.end());
  }

  // Inserts: rows of the new version absent from the base version.
  std::vector<uint32_t> insert_rows;
  std::unordered_set<RecordId> staged_set;
  staged_set.reserve(rids.size() * 2);
  for (size_t i = 0; i < rids.size(); ++i) {
    staged_set.insert(rids[i]);
    if (parent_rids.count(rids[i]) == 0) {
      insert_rows.push_back(static_cast<uint32_t>(i));
    }
  }
  rel::Chunk& dst = delta->mutable_chunk();
  for (int c = 0; c < content.num_columns(); ++c) {
    dst.mutable_column(c).Gather(content.column(c), insert_rows);
  }
  int tomb_col = dst.schema().FindColumn("tombstone");
  for (size_t i = 0; i < insert_rows.size(); ++i) {
    dst.mutable_column(tomb_col).Append(rel::Value::Bool(false));
  }
  // Deletes: base records absent from the new version get tombstones.
  for (RecordId rid : parent_rids) {
    if (staged_set.count(rid) > 0) continue;
    std::vector<rel::Value> row(static_cast<size_t>(dst.schema().num_columns()));
    row[0] = rel::Value::Int(rid);
    row[static_cast<size_t>(tomb_col)] = rel::Value::Bool(true);
    dst.AppendRow(row);
  }

  base_[vid] = primary_parent;
  ORPHEUS_ASSIGN_OR_RETURN(
      rel::Chunk unused,
      db_->Execute("INSERT INTO " + cvd_name_ + "_deltameta VALUES (" +
                   std::to_string(vid) + ", " + std::to_string(primary_parent) +
                   ")"));
  (void)unused;
  return Status::OK();
}

Result<std::vector<VersionId>> DeltaBasedModel::Lineage(VersionId vid) const {
  std::vector<VersionId> chain;
  VersionId cur = vid;
  while (cur >= 0) {
    auto it = base_.find(cur);
    if (it == base_.end()) {
      return Status::NotFound("no delta for version " + std::to_string(cur));
    }
    chain.push_back(cur);
    cur = it->second;
  }
  return chain;
}

Result<rel::Chunk> DeltaBasedModel::VersionRows(VersionId vid) {
  // The paper's replay: walk the lineage newest first; the first
  // occurrence of a rid wins, and a tombstone hides the record.
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<VersionId> chain, Lineage(vid));
  rel::Chunk out(RecordSchema());
  std::unordered_set<RecordId> seen;
  for (VersionId v : chain) {
    ORPHEUS_ASSIGN_OR_RETURN(rel::Table * delta, db_->GetTable(DeltaTable(v)));
    const rel::Chunk& rows = delta->data();
    int rid_col = rows.schema().FindColumn("rid");
    int tomb_col = rows.schema().FindColumn("tombstone");
    const std::vector<int64_t>& rids = rows.column(rid_col).ints();
    const std::vector<int64_t>& tombs = rows.column(tomb_col).ints();
    std::vector<uint32_t> keep;
    for (size_t i = 0; i < rows.num_rows(); ++i) {
      if (!seen.insert(rids[i]).second) continue;  // discarded: occurred before
      if (tombs[i] == 0) keep.push_back(static_cast<uint32_t>(i));
    }
    // Append kept rows (rid + data columns; tombstone dropped).
    for (int c = 0; c < out.num_columns(); ++c) {
      out.mutable_column(c).Gather(rows.column(c), keep);
    }
  }
  return out;
}

Result<std::vector<RecordId>> DeltaBasedModel::VersionRecords(VersionId vid) {
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<VersionId> chain, Lineage(vid));
  std::unordered_set<RecordId> seen;
  std::vector<RecordId> out;
  for (VersionId v : chain) {
    ORPHEUS_ASSIGN_OR_RETURN(rel::Table * delta, db_->GetTable(DeltaTable(v)));
    const rel::Chunk& rows = delta->data();
    int rid_col = rows.schema().FindColumn("rid");
    int tomb_col = rows.schema().FindColumn("tombstone");
    const std::vector<int64_t>& rids = rows.column(rid_col).ints();
    const std::vector<int64_t>& tombs = rows.column(tomb_col).ints();
    for (size_t i = 0; i < rows.num_rows(); ++i) {
      if (!seen.insert(rids[i]).second) continue;
      if (tombs[i] == 0) out.push_back(rids[i]);
    }
  }
  return out;
}

int64_t DeltaBasedModel::StorageBytes() const {
  int64_t bytes = TableBytes(cvd_name_ + "_deltameta");
  for (const auto& [vid, base] : base_) bytes += TableBytes(DeltaTable(vid));
  return bytes;
}

Status DeltaBasedModel::RestoreFromTables(const VersionGraph& graph) {
  (void)graph;
  base_.clear();
  ORPHEUS_ASSIGN_OR_RETURN(
      rel::Chunk rows,
      db_->Execute("SELECT vid, base FROM " + cvd_name_ + "_deltameta"));
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> vids, IntColumn(rows, "vid"));
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> bases, IntColumn(rows, "base"));
  for (size_t i = 0; i < vids.size(); ++i) base_[vids[i]] = bases[i];
  return Status::OK();
}

}  // namespace orpheus::core
